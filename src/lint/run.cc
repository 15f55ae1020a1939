#include "lint/run.h"

#include <algorithm>

#include "clients/ddg_prune.h"
#include "lint/checker.h"
#include "support/timer.h"

namespace manta {
namespace lint {

LintResult
runLint(MantaAnalyzer &analyzer, const InferenceResult *inference,
        const GroundTruth *truth, const LintOptions &options)
{
    const Timer total;
    LintResult result;

    // Same world setup as the evaluation harness's detectBugs: Table 2
    // pruning while the checkers run, restored before returning.
    if (inference != nullptr)
        pruneInfeasibleDeps(analyzer.ddg(), *inference);

    {
        const bool taint_no_type = options.taintNoTypeOverride >= 0
                                       ? options.taintNoTypeOverride != 0
                                       : taint::defaultTaintNoType();
        const LintContext ctx(analyzer, inference, truth, taint_no_type);

        DiagnosticEngine engine;
        engine.enableOnly(options.enabled);
        for (const std::string &checker : options.disabled)
            engine.disable(checker);
        if (!options.baselineText.empty())
            engine.loadBaseline(options.baselineText);

        for (const CheckerFactory make_checker : builtinCheckers) {
            const std::unique_ptr<Checker> checker = make_checker();
            CheckerStats stats;
            stats.id = checker->id();
            result.rules.push_back(SarifRule{checker->id(),
                                             checker->description(),
                                             checker->severity()});
            if (!engine.checkerEnabled(stats.id)) {
                result.perChecker.push_back(std::move(stats));
                continue;
            }
            const Timer per_checker;
            for (Diagnostic &d : checker->run(ctx)) {
                d.fingerprint = ctx.fingerprint(d.checker, d.primary.inst);
                engine.report(std::move(d));
            }
            stats.seconds = per_checker.seconds();
            result.perChecker.push_back(std::move(stats));
        }

        result.diagnostics = engine.take();
        for (CheckerStats &stats : result.perChecker) {
            stats.diagnostics = static_cast<std::size_t>(std::count_if(
                result.diagnostics.begin(), result.diagnostics.end(),
                [&](const Diagnostic &d) { return d.checker == stats.id; }));
            stats.baselineSuppressed =
                engine.baselineSuppressedFor(stats.id);
        }
    }

    analyzer.ddg().resetPruning();
    result.seconds = total.seconds();
    if (inference != nullptr) {
        // The profile is logically mutable accounting state even when
        // the inference result is otherwise read-only here.
        const_cast<InferenceResult *>(inference)->profile().lintSeconds +=
            result.seconds;
    }
    return result;
}

} // namespace lint
} // namespace manta
