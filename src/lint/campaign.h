/**
 * @file
 * The lint benchmark campaign shared by bench/lint_driver and the
 * determinism tests: generate a corpus, run the full type-assisted
 * lint over every project in parallel, score the diagnostics against
 * the oracle-typed reference run, and render the three output
 * artifacts (human text, SARIF log, BENCH_lint.json).
 *
 * Determinism: per-project work runs on the ParallelHarness with
 * indexed result slots and all aggregation happens after the join in
 * index order, so every artifact is byte-identical across MANTA_JOBS
 * settings - except wall-clock fields, which `stable` mode zeroes
 * (what the byte-identity test and the CI smoke step use).
 */
#ifndef MANTA_LINT_CAMPAIGN_H
#define MANTA_LINT_CAMPAIGN_H

#include "lint/run.h"

namespace manta {
namespace lint {

/** Campaign knobs (bench/lint_driver flags map 1:1 onto these). */
struct LintCampaignOptions
{
    std::uint64_t seed = 1;      ///< First project's generator seed.
    int count = 20;              ///< Number of generated projects.
    std::size_t jobs = 0;        ///< Harness workers (0 = MANTA_JOBS).
    bool stable = false;         ///< Zero wall-clock fields in output.
    bool useTypes = true;        ///< false = no-type ablation lint.
    /** Taint-ablation override for the tool run (LintOptions semantics:
     *  -1 honors MANTA_TAINT_NOTYPE, 0 forces the gate on, 1 off). */
    int taintNoTypeOverride = -1;
};

/** Aggregated per-checker campaign outcome. */
struct LintCheckerSummary
{
    std::string id;
    std::size_t diagnostics = 0;           ///< Tool findings.
    std::size_t referenceDiagnostics = 0;  ///< Oracle-typed findings.
    std::size_t matched = 0;               ///< In both sets.
    double seconds = 0.0;                  ///< Summed checker time.

    /** Share of tool findings the oracle reference confirms. */
    double
    precision() const
    {
        return diagnostics == 0 ? 1.0
                                : static_cast<double>(matched) /
                                      static_cast<double>(diagnostics);
    }

    /** Share of oracle findings the tool reproduces. */
    double
    recall() const
    {
        return referenceDiagnostics == 0
                   ? 1.0
                   : static_cast<double>(matched) /
                         static_cast<double>(referenceDiagnostics);
    }
};

/** Everything one campaign produced. */
struct LintCampaignResult
{
    std::string textReport;  ///< Per-project human-readable report.
    std::string sarif;       ///< One SARIF run per project.
    std::string json;        ///< BENCH_lint.json contents.
    std::size_t totalDiagnostics = 0;
    std::vector<LintCheckerSummary> checkers;  ///< In checker-id order.
};

/** Run the campaign (parallel, deterministic; see file comment). */
LintCampaignResult runLintCampaign(const LintCampaignOptions &options);

} // namespace lint
} // namespace manta

#endif // MANTA_LINT_CAMPAIGN_H
