/**
 * @file
 * Context-sensitive type refinement (paper Section 4.2.1, Algorithm 1).
 *
 * For every over-approximated variable, root values are found by a
 * context-valid backward DDG traversal; the type annotations on the
 * CFL-reachable derivatives of those roots are collected, and their
 * LUB/GLB replace the variable's bounds. Context validity removes the
 * over-approximation that polymorphic functions introduce (Figure 7),
 * and alias-restricted traversal avoids merging non-aliased variables.
 *
 * The stage runs in two phases so the traversal work can be batched
 * across the shared task pool: a walk phase that only reads the graph,
 * the environment and the hint index, run as bottom-up SCC waves
 * against the shared summary store (core/wave_walk.h), and a sequential
 * merge phase that performs every TypeTable::join/meet in worklist
 * order - the table interns new nodes on join, which is neither
 * thread-safe nor order-independent at the TypeRef-id level. The
 * refined bounds therefore equal the one-worklist reference
 * (reference/refine_ref.h) bound for bound.
 */
#ifndef MANTA_CORE_REFINE_CTX_H
#define MANTA_CORE_REFINE_CTX_H

#include <unordered_map>
#include <vector>

#include "core/ddg_walk.h"
#include "core/modular.h"
#include "core/refine_memo.h"

namespace manta {

/** Outcome of the context-sensitive stage. */
struct CtxRefineResult
{
    /** Refined bounds overlay (only for variables the stage touched). */
    std::unordered_map<ValueId, BoundPair> refined;

    /** Variables whose refined bounds are a precise singleton. */
    std::size_t resolved = 0;

    /** Variables still over-approximated after refinement. */
    std::vector<ValueId> stillOver;

    /** Candidates answered from the cross-run memo (0 without one). */
    std::size_t reused = 0;

    /** Traversal work counters, merged across all walkers. */
    WalkStats walk;
};

/** The context-sensitive refinement stage. */
class CtxRefinement
{
  public:
    /**
     * @param schedule  Callgraph condensation the walk waves follow.
     * @param summaries Store shared with the other stage of the run;
     *                  this stage publishes its closures into it.
     * @param memo      Cross-run memo (serve incremental mode) or null.
     */
    CtxRefinement(Module &module, const Ddg &ddg, const HintIndex &hints,
                  TypeEnv &env, const ModularSchedule &schedule,
                  FnSummaryStore &summaries, WalkBudget budget = {},
                  RefineMemo *memo = nullptr)
        : module_(module), ddg_(ddg), hints_(hints), env_(env),
          schedule_(schedule), summaries_(summaries), budget_(budget),
          memo_(memo)
    {}

    /** Refine every variable in `over_approx` (Algorithm 1). */
    CtxRefineResult run(const std::vector<ValueId> &over_approx);

  private:
    Module &module_;
    const Ddg &ddg_;
    const HintIndex &hints_;
    TypeEnv &env_;
    const ModularSchedule &schedule_;
    FnSummaryStore &summaries_;
    WalkBudget budget_;
    RefineMemo *memo_;
};

} // namespace manta

#endif // MANTA_CORE_REFINE_CTX_H
