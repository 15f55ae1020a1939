/**
 * @file
 * Flow-sensitive type refinement (paper Section 4.2.2, Algorithm 2).
 *
 * For every still-over-approximated variable, the def site and each use
 * site v@s become distinct type variables. REACHABLE_TYPES performs a
 * backward walk on the (inter-procedural) CFG from s: the first type
 * annotation found on an alias of v along each path is collected and
 * terminates that path (a strong update); the LUB/GLB of all collected
 * annotations become the bounds of v@s. A site with no reachable
 * annotations becomes unknown - the deliberate aggression the paper
 * discusses in Section 6.4 (Type Refinement Order).
 *
 * Like the context stage, this runs as a read-only walk phase
 * (bottom-up SCC waves over the shared summary store,
 * core/wave_walk.h; each worker owns a DdgWalker for the alias-root
 * queries plus interned-context/epoch scratch for the CFG walks)
 * followed by a sequential merge phase that performs the joins in
 * candidate/site order. The alias-root closures the CFG walks depend
 * on are shared across packs and with the context stage, and site and
 * variable bounds equal the one-worklist reference
 * (reference/refine_ref.h) bound for bound.
 */
#ifndef MANTA_CORE_REFINE_FLOW_H
#define MANTA_CORE_REFINE_FLOW_H

#include <unordered_map>
#include <vector>

#include "analysis/cfg.h"
#include "core/ddg_walk.h"
#include "core/modular.h"
#include "core/refine_memo.h"

namespace manta {

/** Key of a per-site type variable v@s. */
struct SiteVar
{
    ValueId value;
    InstId site;  ///< Invalid site = the def site of the variable.

    friend bool
    operator==(const SiteVar &a, const SiteVar &b)
    {
        return a.value == b.value && a.site == b.site;
    }
};

} // namespace manta

namespace std {

template <>
struct hash<manta::SiteVar>
{
    size_t
    operator()(const manta::SiteVar &sv) const noexcept
    {
        return hash<manta::ValueId>()(sv.value) * 1000003u +
               hash<manta::InstId>()(sv.site);
    }
};

} // namespace std

namespace manta {

/** Outcome of the flow-sensitive stage. */
struct FlowRefineResult
{
    /** Per-site bounds for refined variables. */
    std::unordered_map<SiteVar, BoundPair> siteBounds;

    /** Variable-level merge of site results. */
    std::unordered_map<ValueId, BoundPair> refined;

    std::size_t resolved = 0;   ///< Variables precise after this stage.
    std::size_t lost = 0;       ///< Variables refined to unknown.

    /** Candidates answered from the cross-run memo (0 without one). */
    std::size_t reused = 0;

    /** Traversal work counters (DDG root queries + CFG walks). */
    WalkStats walk;
};

/** The flow-sensitive refinement stage. */
class FlowRefinement
{
  public:
    /**
     * Modules below this instruction count skip the flattened
     * hint/CFG indexes in the batch (memo-less) walk phase: flattening
     * is a whole-module pass, and on tiny modules its setup cost exceeds
     * everything the flat hot loop saves (the interpreted walk answers
     * with identical site types either way). The threshold is pinned
     * by tests/test_modular.cc.
     */
    static constexpr std::size_t kFlatIndexMinInsts = 500;

    /** True when the module is large enough to amortize flattening. */
    static bool
    flatIndexEligible(const Module &module)
    {
        return module.numInsts() >= kFlatIndexMinInsts;
    }

    /** Parameters as for CtxRefinement (core/refine_ctx.h). */
    FlowRefinement(Module &module, const Ddg &ddg, const HintIndex &hints,
                   TypeEnv &env, const ModularSchedule &schedule,
                   FnSummaryStore &summaries, WalkBudget budget = {},
                   RefineMemo *memo = nullptr);

    /** Refine every variable in `candidates` (Algorithm 2). */
    FlowRefineResult run(const std::vector<ValueId> &candidates);

  private:
    /** Walk-phase scratch owned by one worker; defined in the .cc. */
    struct Worker;

    /** Walk-phase output for one candidate. */
    struct CandidateOut
    {
        InstId defSite;
        std::vector<InstId> sites;
        std::vector<std::vector<TypeRef>> siteTypes;
    };

    /**
     * Enumerate the candidate's sites (def site first, then use sites
     * in instruction order). Derived only from the module/inst index,
     * so hits and misses alike get their site lists here; for an
     * unchanged owning function the enumeration is identical across
     * runs, which is what lines a cached record's per-site bounds up
     * with the regenerated sites.
     */
    void candidateSites(ValueId v, CandidateOut &out) const;

    /** Walk phase for one candidate (read-only on shared state);
     *  `out.sites` must already be enumerated. */
    void processCandidate(Worker &w, ValueId v, CandidateOut &out);

    /** REACHABLE_TYPES: backward CFG walk from `site`. */
    std::vector<TypeRef> reachableTypes(Worker &w, InstId site);

    const Cfg &cfgOf(FuncId func);

    /**
     * Candidate-independent flattened hint index for the walk phase:
     * for every instruction, the alias-root closure of each of its
     * hints, pooled into flat arrays. rootsOf(hint.value) depends
     * only on frozen state, so flattening it once per stage (instead of
     * probing the walker memo per hint on every one of the hundreds of
     * millions of CFG-walk steps) answers the annotation check with the
     * exact same root sets - site types are unchanged, only the probe
     * cost moves out of the hot loop. Built through the shared summary
     * store; closures computed fresh here are published for the waves.
     */
    struct FlatHints
    {
        /** One hint at an instruction: type + its value's roots. */
        struct Span
        {
            TypeRef type;
            std::uint32_t begin;  ///< Offset into rootPool.
            std::uint32_t count;
        };
        /** Per instruction: (first span, span count); (0,0) = none. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> instSpan;
        std::vector<Span> spans;
        std::vector<std::uint32_t> rootPool;  ///< Root value raw ids.
    };

    /** Build flat_ (sequential; publishes fresh closures). */
    void buildFlatHints(WalkStats &stats);

    /**
     * The backward-step relation of REACHABLE_TYPES flattened into a
     * tagged CSR adjacency. Entries are emitted in exactly the order
     * the interpreted walk pushes work items - call descents, then the
     * in-block predecessor (which suppresses the rest) or block
     * predecessors plus the caller ascent - so the DFS order, and
     * therefore the budget-truncation point of every walk, is
     * unchanged. Only dynamic checks (stack depth, empty context)
     * stay in the hot loop.
     */
    struct FlatCfg
    {
        static constexpr std::uint32_t kStep = 0;    ///< Same context.
        static constexpr std::uint32_t kCall = 1;    ///< Push this inst.
        static constexpr std::uint32_t kAscend = 2;  ///< Pop to caller.
        static constexpr std::uint32_t kPayload = 0x3fffffffu;

        /** Per instruction: (first entry, entry count) into pool. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> rowSpan;
        /** Tag in bits 30-31, target inst raw id in bits 0-29. */
        std::vector<std::uint32_t> pool;
    };

    /** Build fcfg_ (pure CFG structure; sequential, deterministic). */
    void buildFlatCfg();

    /** REACHABLE_TYPES over the flattened index + adjacency. */
    std::vector<TypeRef> reachableTypesFlat(Worker &w, InstId site);

    Module &module_;
    const Ddg &ddg_;
    const HintIndex &hints_;
    TypeEnv &env_;
    const ModularSchedule &schedule_;
    FnSummaryStore &summaries_;
    WalkBudget budget_;
    RefineMemo *memo_;
    InstIndex instIndex_;
    std::unordered_map<std::uint32_t, Cfg> cfg_cache_;
    FlatHints flat_;
    FlatCfg fcfg_;
    bool flatReady_ = false;
};

} // namespace manta

#endif // MANTA_CORE_REFINE_FLOW_H
