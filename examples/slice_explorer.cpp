/**
 * @file
 * Slice explorer: demonstrates type-based data-dependency pruning
 * (Section 5.2) on the paper's Figure 4(c) false-positive NPD - shows
 * the DDG edges before and after pruning and the resulting reports.
 *
 * Usage: ./build/examples/slice_explorer
 */
#include <cstdio>

#include "analysis/acyclic.h"
#include "clients/checkers.h"
#include "clients/ddg_prune.h"
#include "core/pipeline.h"
#include "mir/parser.h"
#include "mir/printer.h"

using namespace manta;

namespace {

// Figure 4(c): a zero that is an arithmetic offset, not a pointer.
const char *kProgram = R"(
string @key "path"

func @checkstr(%pchr:64) {
entry:
  %c = load.8 %pchr
  ret
}
func @parse(%which:1) {
entry:
  %s = call.64 @nvram_get(@key)
  br %which, with_offset, without
with_offset:
  %o1 = copy 4:64
  jmp use
without:
  %o2 = copy 0:64
  jmp use
use:
  %offset = phi [%o1, with_offset], [%o2, without]
  %scaled = mul %offset, 1:64
  %p = add %s, %scaled
  %r = call.32 @checkstr(%p)
  ret
}
)";

void
dumpArithEdges(const Module &module, const Ddg &ddg)
{
    for (std::uint32_t i = 0; i < ddg.numEdges(); ++i) {
        const Ddg::Edge &e = ddg.edge(i);
        if (e.kind != DepKind::PtrArith)
            continue;
        std::printf("  %-8s -> %-8s  %s\n",
                    printValueRef(module, e.from).c_str(),
                    printValueRef(module, e.to).c_str(),
                    e.pruned ? "PRUNED" : "kept");
    }
}

} // namespace

int
main()
{
    Module module = parseModuleOrDie(kProgram);
    makeAcyclic(module);
    MantaAnalyzer analyzer(module, HybridConfig::full());

    std::printf("Arithmetic data dependencies before pruning:\n");
    dumpArithEdges(module, analyzer.ddg());

    // Untyped detection first: the zero-offset path produces a false
    // NPD (it reaches the dereference through the add).
    const BugDetector untyped(analyzer, nullptr);
    std::printf("\nWithout types: %zu NPD report(s) - the Figure 4(c) "
                "false positive.\n",
                untyped.run(CheckerKind::NPD).size());

    // Now infer, prune per Table 2, and re-run.
    InferenceResult types = analyzer.infer();
    const PruneStats stats = pruneInfeasibleDeps(analyzer.ddg(), types);
    std::printf("\nAfter inference: pruned %zu of %zu arithmetic "
                "edges:\n", stats.pruned, stats.examined);
    dumpArithEdges(module, analyzer.ddg());

    const BugDetector typed(analyzer, &types);
    std::printf("\nWith types: %zu NPD report(s) - the offset edge is "
                "gone, so the zero\nnever reaches the dereference.\n",
                typed.run(CheckerKind::NPD).size());
    return 0;
}
