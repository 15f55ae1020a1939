/**
 * @file
 * runLint: the one-call entry point of the lint framework.
 *
 * Prunes the DDG exactly like the evaluation harness's detectBugs
 * (when a type source is given), builds a LintContext, runs every
 * enabled built-in checker in id order with per-checker wall-clock
 * accounting, routes findings through the DiagnosticEngine (dedup,
 * enable/disable, baseline suppression) and returns the
 * deterministically sorted result. The DDG pruning is restored before
 * returning.
 */
#ifndef MANTA_LINT_RUN_H
#define MANTA_LINT_RUN_H

#include "lint/context.h"
#include "lint/engine.h"
#include "lint/sarif.h"

namespace manta {
namespace lint {

/** Knobs of one runLint invocation. */
struct LintOptions
{
    /** Keep only these checker ids (empty = all). */
    std::vector<std::string> enabled;
    /** Drop these checker ids. */
    std::vector<std::string> disabled;
    /** Baseline-suppression file contents ("" = none). */
    std::string baselineText;
    /**
     * Taint-ablation override: -1 honors MANTA_TAINT_NOTYPE, 0 forces
     * the type gate on, 1 forces it off. The campaign pins its
     * oracle-typed reference run to 0 so the ablation's extra flows
     * surface as precision loss instead of shifting the reference.
     */
    int taintNoTypeOverride = -1;
};

/** Per-checker outcome of one run. */
struct CheckerStats
{
    std::string id;
    std::size_t diagnostics = 0;         ///< Findings that survived.
    std::size_t baselineSuppressed = 0;  ///< Dropped by the baseline.
    double seconds = 0.0;                ///< Wall-clock in run().
};

/** Everything one runLint invocation produced. */
struct LintResult
{
    std::vector<Diagnostic> diagnostics;   ///< Sorted (diagnosticLess).
    std::vector<CheckerStats> perChecker;  ///< In checker-id order.
    double seconds = 0.0;                  ///< Total lint wall-clock.

    /** Rule metadata for every built-in checker (SARIF driver.rules). */
    std::vector<SarifRule> rules;
};

/**
 * Run every enabled checker over one analyzed module.
 *
 * @param analyzer  Analyzer for the module (DDG unpruned on entry).
 * @param inference Type source; null = no-type mode (the ablation).
 * @param truth     Frontend ground truth; null for stripped input.
 *
 * When @p inference is non-null its profile().lintSeconds is credited
 * with the total lint wall-clock.
 */
LintResult runLint(MantaAnalyzer &analyzer,
                   const InferenceResult *inference,
                   const GroundTruth *truth, const LintOptions &options);

} // namespace lint
} // namespace manta

#endif // MANTA_LINT_RUN_H
