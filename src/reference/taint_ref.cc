#include "reference/taint_ref.h"

#include <algorithm>
#include <deque>

#include "taint/spec.h"

namespace manta {

std::vector<taint::FactSet>
referenceTaintFacts(MantaAnalyzer &analyzer,
                    const InferenceResult *inference,
                    const taint::TaintOptions &options)
{
    const Module &module = analyzer.module();
    const Ddg &ddg = analyzer.ddg();
    const std::size_t n = module.numValues();
    const std::size_t cap = std::max<std::size_t>(1, options.maxFactsPerValue);

    // The numeric barrier: a value whose interval commits to numeric
    // forwards only the facts introduced at it.
    std::vector<char> barrier(n, 0);
    if (options.useTypes && inference != nullptr) {
        const TypeTable &tt = inference->types();
        for (std::size_t v = 0; v < n; ++v) {
            const BoundPair bp = inference->valueBounds(
                ValueId(static_cast<ValueId::RawType>(v)));
            barrier[v] = tt.isNumeric(bp.upper) &&
                         (tt.isNumeric(bp.lower) || bp.lower == tt.bottom());
        }
    }

    std::vector<taint::FactSet> facts(n), seeded(n);
    std::deque<std::uint32_t> worklist;
    for (const taint::SourceSeed &seed :
         taint::collectSources(module, ddg, analyzer.memObjects())) {
        taint::joinFacts(facts[seed.value.index()], {seed.fact}, cap);
        taint::joinFacts(seeded[seed.value.index()], {seed.fact}, cap);
        worklist.push_back(seed.value.raw());
    }
    while (!worklist.empty()) {
        const std::uint32_t u = worklist.front();
        worklist.pop_front();
        taint::FactSet out;
        if (!barrier[u]) {
            out = facts[u];
        } else {
            std::set_intersection(facts[u].begin(), facts[u].end(),
                                  seeded[u].begin(), seeded[u].end(),
                                  std::back_inserter(out));
        }
        for (const std::uint32_t e : ddg.outEdges(ValueId(u))) {
            const Ddg::Edge &edge = ddg.edge(e);
            if (options.sanitizers && taint::sanitizerEdge(module, edge))
                continue;
            if (taint::joinFacts(facts[edge.to.index()], out, cap))
                worklist.push_back(edge.to.raw());
        }
    }
    return facts;
}

} // namespace manta
