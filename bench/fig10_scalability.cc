/**
 * @file
 * Regenerates paper Figure 10: inference time and memory against
 * program size, with a linear fit. The paper reports near-linear
 * scaling (FFmpeg at ~1 MLoC finishing in 38 minutes / 64 GB on their
 * corpus; our absolute numbers are laptop-scale).
 *
 * The size points run concurrently on the ParallelHarness (indexed
 * result slots keep the table in size order). Per-point times are
 * measured with thread-confined timers; with MANTA_JOBS > 1 the
 * points share cores, so for publication-quality timing curves run
 * with MANTA_JOBS=1 (counts and the fitted shape are unaffected).
 * End-to-end scale (the xl100k module, the 118-binary corpus) is
 * measured by perfbench/ instead.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/acyclic.h"
#include "core/pipeline.h"
#include "eval/parallel.h"
#include "frontend/generator.h"
#include "support/csv.h"
#include "support/table.h"
#include "support/timer.h"
#include "taint/taint.h"

namespace manta {
namespace {

struct SizePoint
{
    int numFunctions = 0;
    std::size_t numInsts = 0;
    double substrateSeconds = 0.0;
    double ptsSeconds = 0.0;
    double fiSeconds = 0.0;
    double csSeconds = 0.0;
    double fsSeconds = 0.0;
    double inferSeconds = 0.0;
    double summarySeconds = 0.0;  ///< Callgraph + SCC schedule build.
    std::size_t sccCount = 0;
    std::size_t sccWaves = 0;
    WalkStats walk;  ///< CS+FS traversal counters, merged.
    double taintSeconds = 0.0;    ///< Taint fixpoints over the result.
    std::size_t taintFlows = 0;
    std::size_t taintSuppressed = 0;
};

int
runFig10()
{
    std::printf("=== Figure 10: scalability (time/memory vs size) ===\n\n");

    ParallelHarness harness;
    std::printf("(jobs: %zu; set MANTA_JOBS=1 for undisturbed "
                "timings)\n\n",
                harness.jobs());

    const std::vector<int> sizes_cfg = {25, 50, 100, 200, 400, 800};
    auto points = harness.map(sizes_cfg.size(), [&](std::size_t i) {
        GenConfig cfg;
        cfg.seed = 4242;
        cfg.numFunctions = sizes_cfg[i];
        cfg.realBugRate = 0.02;
        cfg.decoyRate = 0.03;
        cfg.leakRate = 0.02;
        cfg.leakDecoyRate = 0.02;
        GeneratedProgram prog = generateProgram(cfg);
        makeAcyclic(*prog.module);

        SizePoint point;
        point.numFunctions = sizes_cfg[i];

        Timer substrate_timer;
        MantaAnalyzer analyzer(*prog.module, HybridConfig::full());
        point.substrateSeconds = substrate_timer.seconds();

        InferenceResult result = analyzer.infer();

        // Bill the taint fixpoint to the profile so the secondary
        // table shows its cost alongside the traversal counters.
        taint::TaintOptions taint_opts;
        taint_opts.useTypes = true;
        const taint::TaintResult taint_result =
            taint::runTaint(analyzer, &result, taint_opts);
        result.profile().taintSeconds += taint_result.stats.seconds;
        result.profile().taintFlows += taint_result.stats.flows;
        result.profile().taintSuppressed += taint_result.stats.suppressed;

        const InferenceProfile &profile = result.profile();
        point.numInsts = prog.module->numInsts();
        point.ptsSeconds = profile.ptsSeconds;
        point.fiSeconds = profile.fiSeconds;
        point.csSeconds = profile.csSeconds;
        point.fsSeconds = profile.fsSeconds;
        point.inferSeconds = profile.seconds;
        point.summarySeconds = profile.summarySeconds;
        point.sccCount = profile.sccCount;
        point.sccWaves = profile.sccWaves;
        point.walk = profile.csWalk;
        point.walk.merge(profile.fsWalk);
        point.taintSeconds = profile.taintSeconds;
        point.taintFlows = profile.taintFlows;
        point.taintSuppressed = profile.taintSuppressed;
        std::printf("  measured %d functions\n", sizes_cfg[i]);
        std::fflush(stdout);
        return point;
    });

    AsciiTable table;
    table.setHeader({"#funcs", "#insts", "KLoC-equiv", "substrate (s)",
                     "PTS (s)", "FI (s)", "CS (s)", "FS (s)",
                     "inference (s)", "peak RSS (MiB)"});

    std::vector<double> sizes, times;
    for (const SizePoint &point : points) {
        const double kloc =
            static_cast<double>(point.numInsts) / 320.0;
        table.addRow({std::to_string(point.numFunctions),
                      std::to_string(point.numInsts),
                      fmtDouble(kloc, 1),
                      fmtDouble(point.substrateSeconds, 3),
                      fmtDouble(point.ptsSeconds, 3),
                      fmtDouble(point.fiSeconds, 3),
                      fmtDouble(point.csSeconds, 3),
                      fmtDouble(point.fsSeconds, 3),
                      fmtDouble(point.inferSeconds, 3),
                      fmtDouble(peakRssMiB(), 1)});
        sizes.push_back(static_cast<double>(point.numInsts));
        times.push_back(point.substrateSeconds + point.inferSeconds);
    }

    std::printf("\n%s", table.render().c_str());
    CsvWriter csv("fig10_scalability");
    table.writeCsv(csv);

    // Traversal work of the refinement stages per size point: memo
    // hit rate should stay high and truncations rare as size grows,
    // which is what keeps the curve above near-linear. Summary hits
    // count walk queries answered from the shared cross-SCC store;
    // schedule (s) is the callgraph + SCC condensation build time.
    AsciiTable walk_table;
    walk_table.setHeader({"#funcs", "walk queries", "memo hits",
                          "summary hits", "truncated", "steps",
                          "peak ctx depth", "SCCs", "waves",
                          "schedule (s)", "taint flows",
                          "taint suppressed", "taint (s)"});
    for (const SizePoint &point : points) {
        walk_table.addRow({std::to_string(point.numFunctions),
                           std::to_string(point.walk.queries),
                           std::to_string(point.walk.memoHits),
                           std::to_string(point.walk.summaryHits),
                           std::to_string(point.walk.truncated),
                           std::to_string(point.walk.steps),
                           std::to_string(point.walk.peakCtxDepth),
                           std::to_string(point.sccCount),
                           std::to_string(point.sccWaves),
                           fmtDouble(point.summarySeconds, 4),
                           std::to_string(point.taintFlows),
                           std::to_string(point.taintSuppressed),
                           fmtDouble(point.taintSeconds, 4)});
    }
    std::printf("\n%s", walk_table.render().c_str());

    // Least-squares fit time = a * size + b; report the curve and how
    // superlinear the growth looks (ratio of per-inst cost largest vs
    // smallest).
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    const double n = static_cast<double>(sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        sx += sizes[i];
        sy += times[i];
        sxx += sizes[i] * sizes[i];
        sxy += sizes[i] * times[i];
    }
    const double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    const double intercept = (sy - slope * sx) / n;
    const double cost_small = times.front() / sizes.front();
    const double cost_large = times.back() / sizes.back();
    std::printf("\nLinear fit: time(s) = %.3g * insts + %.3g\n", slope,
                intercept);
    std::printf("Per-instruction cost ratio (largest/smallest run): "
                "%.2fx\n",
                cost_large / cost_small);
    std::printf("\nPaper reference: both time and memory grow "
                "near-linearly with project size.\n");
    return 0;
}

} // namespace
} // namespace manta

int
main()
{
    return manta::runFig10();
}
