/**
 * @file
 * Callgraph condensation into strongly connected components.
 *
 * The modular bottom-up scheduler (core/modular.h, core/wave_walk.h)
 * analyzes one SCC of mutually recursive functions at a time, callees
 * before callers, so per-function summaries computed for a callee SCC
 * are already published when a caller SCC's traversals reach into it.
 * The serving layer reuses the same condensation as its invalidation
 * unit: a dirty function dirties its whole SCC, and the re-analysis
 * frontier is a closure over the condensation DAG instead of the raw
 * function graph.
 *
 * Everything here is deterministic: component ids come from Tarjan's
 * algorithm over the callee adjacency (support/graph.h), members are
 * sorted ascending, and waves list component ids in ascending order.
 */
#ifndef MANTA_ANALYSIS_SCC_H
#define MANTA_ANALYSIS_SCC_H

#include <cstdint>
#include <vector>

#include "analysis/callgraph.h"

namespace manta {

/** The condensation DAG of a CallGraph. */
class SccGraph
{
  public:
    explicit SccGraph(const CallGraph &graph, std::size_t num_funcs);

    std::size_t numSccs() const { return members_.size(); }
    std::size_t numFuncs() const { return scc_of_.size(); }

    /** Component id of a function. */
    std::uint32_t sccOf(FuncId func) const { return scc_of_[func.index()]; }

    /** Member functions of one component, ascending by raw id. */
    const std::vector<FuncId> &
    members(std::uint32_t scc) const
    {
        return members_[scc];
    }

    /** Distinct callee components (edges of the condensation DAG). */
    const std::vector<std::uint32_t> &
    calleeSccs(std::uint32_t scc) const
    {
        return callees_[scc];
    }

    /** Distinct caller components. */
    const std::vector<std::uint32_t> &
    callerSccs(std::uint32_t scc) const
    {
        return callers_[scc];
    }

    /**
     * True for a component that is a single function with no self
     * call: the non-recursive common case.
     */
    bool
    isTrivial(std::uint32_t scc) const
    {
        return members_[scc].size() == 1 && !self_loop_[scc];
    }

    /** True when some member calls into its own component. */
    bool isRecursive(std::uint32_t scc) const { return self_loop_[scc]; }

    /**
     * Bottom-up wave of a component: 0 for leaf components (no
     * internal callees), otherwise 1 + max over callee components.
     * Analyzing waves in increasing order visits callees first.
     */
    std::uint32_t waveOf(std::uint32_t scc) const { return wave_of_[scc]; }

    std::size_t numWaves() const { return waves_.size(); }

    /** Component ids of one wave, ascending. */
    const std::vector<std::uint32_t> &
    wave(std::size_t level) const
    {
        return waves_[level];
    }

    /**
     * Re-analysis frontier of a dirty set: every function whose
     * component is reachable from a dirty function's component along
     * condensation edges in either direction (transitive callers and
     * callees, interleaved). Equals analysis/callgraph.h's
     * callClosure() function-for-function, but runs on the (much
     * smaller) condensation and can be reused across requests once
     * the SccGraph is built. Ascending raw-id order.
     */
    std::vector<FuncId> closure(const std::vector<FuncId> &dirty) const;

  private:
    std::vector<std::uint32_t> scc_of_;
    std::vector<std::vector<FuncId>> members_;
    std::vector<std::vector<std::uint32_t>> callees_;
    std::vector<std::vector<std::uint32_t>> callers_;
    std::vector<char> self_loop_;
    std::vector<std::uint32_t> wave_of_;
    std::vector<std::vector<std::uint32_t>> waves_;
};

} // namespace manta

#endif // MANTA_ANALYSIS_SCC_H
