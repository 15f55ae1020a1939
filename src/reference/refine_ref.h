/**
 * @file
 * The sequential reference for the refinement stages (paper
 * Algorithms 1 and 2), kept only as the thing production is checked
 * against.
 *
 * Production (core/refine_ctx.h, core/refine_flow.h) walks with
 * interned contexts, epoch scratch, memoized and cross-SCC-shared
 * closures, a flattened hint index, per-candidate block and callee
 * summaries and bottom-up SCC waves on the task pool. The reference
 * does none of that: RefWalker is the original walker (a std::set
 * visited per query, a context vector copied on every crossing), and
 * referenceInfer merges its answers over one worklist in the stage
 * order core/pipeline.cc documents. Its DDG queries expand the same
 * frames in the same order as production under the same WalkBudget;
 * its REACHABLE_TYPES walk is the uncapped Algorithm 2, the exact set
 * production's summaries compute. So the overlays must agree entry
 * for entry, by TypeRef id (types are hash-consed in the module's
 * shared TypeTable).
 *
 * Only tests, the fuzz harness and benches link this library.
 */
#ifndef MANTA_REFERENCE_REFINE_REF_H
#define MANTA_REFERENCE_REFINE_REF_H

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/cfg.h"
#include "core/pipeline.h"

namespace manta {

/** Value and site overlays of one reference run. */
struct RefOverlays
{
    std::unordered_map<ValueId, BoundPair> values;
    std::unordered_map<SiteVar, BoundPair> sites;
};

/** The original, allocation-per-query walker. */
class RefWalker
{
  public:
    /** `env` may be null (no arithmetic feasibility pruning). */
    RefWalker(const Module &module, const Ddg &ddg, const HintIndex &hints,
              const TypeEnv *env, TypeTable &types, WalkBudget budget = {});

    /** FIND_ROOTS (Algorithm 1): context-valid backward closure. */
    std::vector<ValueId> findRootsRef(ValueId v) const;

    /** COLLECT_TYPES (Algorithm 1): hints on the forward closure. */
    std::vector<TypeRef> collectTypesRef(ValueId root) const;

    /**
     * REACHABLE_TYPES (Algorithm 2): backward CFG walk from `site`;
     * the first hint on a value sharing a root with `roots` ends each
     * path and is collected. No budget: the walk runs to completion.
     */
    std::vector<TypeRef> reachableTypesRef(InstId site,
                                           const std::set<ValueId> &roots);

  private:
    const Module &module_;
    const Ddg &ddg_;
    const HintIndex &hints_;
    const TypeEnv *env_;
    TypeTable &types_;
    WalkBudget budget_;
    InstIndex index_;
    std::unordered_map<std::uint32_t, Cfg> cfgs_;
    /** Roots of hint values; a query's answer is a pure function of
     *  frozen state, so caching it cannot change any walk. */
    std::unordered_map<std::uint32_t, std::vector<ValueId>> hint_roots_;
};

/**
 * The pipeline over one worklist: the configured flow-insensitive core
 * into a fresh environment, then the Algorithm 1/2 merges with
 * RefWalker answers, honoring every HybridConfig stage toggle,
 * fsBeforeCs and the WalkBudget.
 */
RefOverlays referenceInfer(MantaAnalyzer &analyzer,
                           const HybridConfig &config);

/**
 * Compare a production result with the reference: empty when both
 * overlays hold the same entries with the same bounds (by TypeRef),
 * otherwise a description of the first mismatch.
 */
std::string diffOverlays(const InferenceResult &result,
                         const RefOverlays &ref);

} // namespace manta

#endif // MANTA_REFERENCE_REFINE_REF_H
