/**
 * @file
 * Firmware audit: generate a firmware-shaped image, run the full
 * type-assisted bug detection pipeline on it, and compare against the
 * no-type ablation - the Table 5 workflow as a library consumer would
 * drive it.
 *
 * Usage: ./build/examples/firmware_audit [seed]
 */
#include <cstdio>
#include <cstdlib>

#include "analysis/acyclic.h"
#include "clients/checkers.h"
#include "clients/ddg_prune.h"
#include "core/pipeline.h"
#include "frontend/firmware.h"
#include "support/timer.h"

using namespace manta;

int
main(int argc, char **argv)
{
    FirmwareProfile profile = firmwareFleet().front();
    if (argc > 1)
        profile.config.seed = std::strtoull(argv[1], nullptr, 10);

    std::printf("Auditing firmware image '%s' (seed %llu)...\n",
                profile.name.c_str(),
                static_cast<unsigned long long>(profile.config.seed));

    GeneratedProgram image = buildFirmware(profile);
    makeAcyclic(*image.module);
    std::printf("  %zu functions, %zu instructions, %zu injected "
                "vulnerabilities\n",
                image.module->numFuncs(), image.module->numInsts(),
                image.truth.seeds.size());

    MantaAnalyzer analyzer(*image.module, HybridConfig::full());

    // Type-assisted run.
    Timer timer;
    InferenceResult types = analyzer.infer();
    const PruneStats prunes = pruneInfeasibleDeps(analyzer.ddg(), types);
    const BugDetector typed(analyzer, &types);
    const auto typed_reports = typed.runAll();
    const double typed_ms = timer.milliseconds();
    analyzer.ddg().resetPruning();

    // No-type ablation.
    timer.reset();
    const BugDetector untyped(analyzer, nullptr);
    const auto untyped_reports = untyped.runAll();
    const double untyped_ms = timer.milliseconds();

    auto summarize = [&](const char *label,
                         const std::vector<BugReport> &reports) {
        std::size_t per_kind[5] = {};
        std::size_t real = 0;
        for (const BugReport &r : reports) {
            ++per_kind[static_cast<int>(r.kind)];
            real += r.sinkTag != 0 && image.truth.isRealBugTag(r.sinkTag);
        }
        std::printf("  %-12s %3zu reports (NPD %zu, RSA %zu, UAF %zu, "
                    "CMI %zu, BOF %zu) - %zu hit injected bugs\n",
                    label, reports.size(), per_kind[0], per_kind[1],
                    per_kind[2], per_kind[3], per_kind[4], real);
    };

    std::printf("\nResults:\n");
    std::printf("  pruned %zu of %zu arithmetic dependencies "
                "(Table 2 rules)\n", prunes.pruned, prunes.examined);
    summarize("Manta", typed_reports);
    summarize("Manta-NoType", untyped_reports);
    std::printf("  times: typed %.0f ms (incl. inference), untyped "
                "%.0f ms\n", typed_ms, untyped_ms);

    // Show a few sample findings with context.
    std::printf("\nSample findings:\n");
    int shown = 0;
    for (const BugReport &r : typed_reports) {
        if (shown++ >= 5)
            break;
        std::printf("  [%s] %s\n", checkerName(r.kind),
                    r.message.c_str());
    }
    return 0;
}
