/**
 * @file
 * manta_cli: the command-line front door for the library.
 *
 * Reads a textual MIR module (file path, or stdin with "-"), runs the
 * requested pipeline, and prints one of several reports:
 *
 *   manta_cli <file> types        annotated listing + signatures
 *   manta_cli <file> bugs         type-assisted bug reports
 *   manta_cli <file> bugs-notype  untyped ablation reports
 *   manta_cli <file> lint         lint framework, human-readable text
 *   manta_cli <file> lint-notype  lint in the no-type ablation
 *   manta_cli <file> lint-sarif   lint framework, SARIF 2.1.0 JSON
 *   manta_cli <file> icall        indirect-call target sets
 *   manta_cli <file> stats        stage statistics
 *   manta_cli <file> run          execute under the interpreter
 *   manta_cli serve [--socket P]  long-lived analysis daemon
 *
 * The mode list is defined once in serve/cli_modes.h; --help renders
 * it and the help-parity test asserts the two never drift.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/acyclic.h"
#include "clients/annotate.h"
#include "clients/checkers.h"
#include "clients/ddg_prune.h"
#include "clients/icall.h"
#include "core/pipeline.h"
#include "lint/campaign.h"
#include "mir/interp.h"
#include "mir/parser.h"
#include "serve/cli_modes.h"
#include "serve/server.h"

using namespace manta;

namespace {

int
usage()
{
    std::fprintf(stderr, "%s", serve::cliHelpText().c_str());
    return 2;
}

std::string
readInput(const char *path)
{
    std::ostringstream buffer;
    if (std::strcmp(path, "-") == 0) {
        buffer << std::cin.rdbuf();
    } else {
        std::ifstream file(path);
        if (!file) {
            std::fprintf(stderr, "manta_cli: cannot open %s\n", path);
            std::exit(2);
        }
        buffer << file.rdbuf();
    }
    return buffer.str();
}

void
printBugs(MantaAnalyzer &analyzer, const InferenceResult *types)
{
    if (types)
        pruneInfeasibleDeps(analyzer.ddg(), *types);
    const BugDetector detector(analyzer, types);
    const auto reports = detector.runAll();
    std::printf("%zu report(s)%s\n", reports.size(),
                types ? " (type-assisted)" : " (no types)");
    Module &module = analyzer.module();
    for (const BugReport &r : reports) {
        const FuncId in_func =
            module.block(module.inst(r.sinkSite).parent).func;
        std::printf("  [%s] in @%s: %s\n", checkerName(r.kind),
                    std::string(module.str(
                        module.func(in_func).name)).c_str(),
                    r.message.c_str());
    }
    analyzer.ddg().resetPruning();
}

int
runServe(int argc, char **argv)
{
    std::string socket_path;
    for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
            socket_path = argv[++i];
        } else {
            return usage();
        }
    }
    serve::Service service;
    if (!socket_path.empty())
        return serve::runUnixServer(service, socket_path);
    return serve::runStdioServer(service);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--help") == 0) {
        std::printf("%s", serve::cliHelpText().c_str());
        return 0;
    }
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0)
        return runServe(argc, argv);
    if (argc != 3)
        return usage();
    const std::string text = readInput(argv[1]);
    const std::string mode = argv[2];

    Module module;
    std::string error;
    if (!parseModule(text, module, error)) {
        std::fprintf(stderr, "manta_cli: parse error: %s\n",
                     error.c_str());
        return 1;
    }
    makeAcyclic(module);
    MantaAnalyzer analyzer(module, HybridConfig::full());

    if (mode == "types") {
        const InferenceResult types = analyzer.infer();
        std::printf("%s", annotateModule(module, types).c_str());
    } else if (mode == "bugs") {
        const InferenceResult types = analyzer.infer();
        printBugs(analyzer, &types);
    } else if (mode == "bugs-notype") {
        printBugs(analyzer, nullptr);
    } else if (mode == "lint" || mode == "lint-notype" ||
               mode == "lint-sarif") {
        const InferenceResult types = analyzer.infer();
        const lint::LintResult result =
            lint::runLint(analyzer,
                          mode == "lint-notype" ? nullptr : &types,
                          nullptr, lint::LintOptions{});
        if (mode == "lint-sarif") {
            lint::SarifRun run;
            run.artifact = argv[1];
            run.diagnostics = result.diagnostics;
            std::printf("%s", lint::sarifLog({run}, result.rules).c_str());
        } else {
            std::printf("%zu diagnostic(s)%s\n", result.diagnostics.size(),
                        mode == "lint" ? " (type-assisted)"
                                       : " (no types)");
            std::printf(
                "%s",
                lint::DiagnosticEngine::renderText(result.diagnostics)
                    .c_str());
        }
    } else if (mode == "icall") {
        InferenceResult types = analyzer.infer();
        const IcallAnalysis analysis(module, &types);
        const IcallResult result =
            analysis.run(IcallDiscipline::FullTypes);
        std::printf("%zu indirect call site(s), AICT %.1f\n",
                    result.numSites(), result.aict());
        for (const auto &[site, targets] : result.targets) {
            const FuncId in_func =
                module.block(module.inst(site).parent).func;
            std::printf("  in @%s ->",
                        std::string(module.str(
                            module.func(in_func).name)).c_str());
            for (const FuncId t : targets) {
                std::printf(" @%s",
                            std::string(module.str(
                                module.func(t).name)).c_str());
            }
            std::printf("\n");
        }
    } else if (mode == "stats") {
        const InferenceResult types = analyzer.infer();
        const StageStats stats = types.finalStats();
        const InferenceProfile &prof = types.profile();
        std::printf("variables: %zu precise, %zu over-approximated, "
                    "%zu unknown\n",
                    stats.precise, stats.over, stats.unknown);
        std::printf("stages: FI left %zu over; CS resolved %zu; FS "
                    "resolved %zu, lost %zu\n",
                    prof.fiOver, prof.csResolved, prof.fsResolved,
                    prof.fsLost);
        std::printf("hints: %zu; time: %.3fs\n", prof.hintCount,
                    prof.seconds);
    } else if (mode == "run") {
        Interpreter interp(module);
        const InterpResult r = interp.runMain();
        std::printf("steps: %zu, completed: %s, return: %lld\n", r.steps,
                    r.completed ? "yes" : "no",
                    static_cast<long long>(r.returnValue));
        for (const RuntimeEvent &e : r.events)
            std::printf("  runtime event: %s\n", e.detail.c_str());
    } else {
        return usage();
    }
    return 0;
}
