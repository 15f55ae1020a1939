/**
 * @file
 * Flow-sensitive type refinement (paper Section 4.2.2, Algorithm 2).
 *
 * For every still-over-approximated variable, the def site and each use
 * site v@s become distinct type variables. REACHABLE_TYPES collects,
 * along every backward path on the (inter-procedural) CFG from s, the
 * first type annotation on an alias of v; that annotation terminates
 * the path (a strong update). The LUB/GLB of all collected annotations
 * become the bounds of v@s. A site with no reachable annotations
 * becomes unknown - the deliberate aggression the paper discusses in
 * Section 6.4 (Type Refinement Order).
 *
 * The answer is evaluated exactly, without a step budget, by summaries
 * that one candidate's sites share (they all sit in its owning
 * function). With R the candidate's alias-root set:
 *  - Out(b) scans block b backwards. At the first instruction with a
 *    hint whose roots meet R it collects that instruction's matching
 *    types and stops; every direct call it passes adds Sum(callee);
 *    if nothing stops it, it adds Out(p) for every predecessor p.
 *  - Sum(g) is the union of Out(b) over g's `ret` blocks. A path that
 *    reaches g's entry returns to the call it descended from, which
 *    continues on its own, so the caller is never re-entered.
 *  - A site scans its own block from its own position, then takes the
 *    union of its predecessors' Out.
 * After makeAcyclic, which analyses require, every CFG and the direct
 * call graph are DAGs, so each table entry is computed once per
 * candidate, after the entries it depends on. On modules of at least
 * kFlatIndexMinInsts instructions a relevance filter skips callee g
 * outright when no function in g's call closure holds a hint whose
 * roots meet R - pure pruning, in batch and memo runs alike.
 *
 * Memo (serve) runs record what the filter read without listing the
 * skipped closures function by function. Each call-graph SCC s gets a
 * Merkle digest D(s), computed once per run bottom-up over the
 * condensation: it hashes the substrate hashes of s's members, those
 * of the functions their hints' root queries touched, and the D of
 * s's callee SCCs. A skipped callee g becomes one dependency
 * (g, D(scc(g))) of the candidate's record; a hint the evaluation
 * examines replays its root query's touched functions. A poisoned
 * root query (one that read an unattributable value) poisons D(s) and
 * every candidate that skips s.
 *
 * Like the context stage, this runs as a read-only walk phase
 * (bottom-up SCC waves over the shared summary store,
 * core/wave_walk.h; each worker owns a DdgWalker for the alias-root
 * queries plus the epoch-stamped summary tables) followed by a
 * sequential merge phase that performs the joins in candidate/site
 * order. Site and variable bounds equal the uncapped one-worklist
 * reference (reference/refine_ref.h) bound for bound. WalkBudget
 * bounds only the DDG root queries here.
 */
#ifndef MANTA_CORE_REFINE_FLOW_H
#define MANTA_CORE_REFINE_FLOW_H

#include <cstdint>
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

    /** Work counters: DDG root queries, plus one query per site and
     *  one step per summary node entered or instruction examined. */
    WalkStats walk;
};

/** The flow-sensitive refinement stage. */
class FlowRefinement
{
  public:
    /**
     * Modules below this instruction count skip the flattened hint
     * index (and with it the relevance filter and, in memo runs, the
     * closure digests): flattening computes the roots of every hint in
     * the module, and on tiny modules that costs more than the filter
     * saves. Both ways answer with identical site types. The threshold
     * is pinned by tests/test_modular.cc.
     */
    static constexpr std::size_t kFlatIndexMinInsts = 500;

    /** True when the module is large enough to amortize flattening. */
    static bool
    flatIndexEligible(const Module &module)
    {
        return module.numInsts() >= kFlatIndexMinInsts;
    }

    /** Parameters as for CtxRefinement (core/refine_ctx.h); `budget`
     *  bounds only the alias-root queries. */
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

    /**
     * Pure CFG structure the summaries read, built once per stage: per
     * block, the instructions that can stop or extend a path (hint
     * carriers and direct calls, last instruction first) and the
     * predecessors; per function, the `ret` blocks.
     */
    struct BlockGraph
    {
        static constexpr std::uint32_t kNoCallee = 0xffffffffu;

        struct Event
        {
            std::uint32_t inst;
            std::uint32_t pos;     ///< Position in the block.
            std::uint32_t callee;  ///< Direct callee raw id or kNoCallee.
            bool hinted;           ///< Instruction carries hints.
        };
        /** CSR by block raw id. */
        std::vector<std::uint32_t> eventOff;
        std::vector<Event> events;
        std::vector<std::uint32_t> predOff;
        std::vector<std::uint32_t> preds;
        /** CSR by function raw id. */
        std::vector<std::uint32_t> retOff;
        std::vector<std::uint32_t> rets;
    };

    /** Build graph_ (sequential, deterministic). */
    void buildBlockGraph();

    /**
     * Candidate-independent hint index: for every instruction, the
     * alias-root closure of each of its hints, pooled into flat arrays
     * (one closure per distinct hint value), plus the inverse map the
     * relevance filter needs (root -> functions holding a hint with
     * that root; callers come from the schedule's call-graph
     * condensation). rootsOf(hint.value) depends only on frozen state,
     * so flattening it once per stage answers the annotation check
     * with the exact same root sets. Built through the shared summary
     * store; closures computed fresh here are published for the waves.
     *
     * Memo runs build it with touch capture on, so the published
     * closures carry touched lists, and keep each closure's root-query
     * touched list: examining a hint replays it, and the closure
     * digests fold it in.
     */
    struct FlatHints
    {
        /** One hint at an instruction: its type and value closure. */
        struct Span
        {
            TypeRef type;
            std::uint32_t closure;
        };
        /** Per instruction: (first span, span count); (0,0) = none. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> instSpan;
        std::vector<Span> spans;
        /** CSR by closure id: root value raw ids. */
        std::vector<std::uint32_t> rootOff;
        std::vector<std::uint32_t> rootPool;
        /** CSR by root value raw id: functions holding its hints. */
        std::vector<std::uint32_t> funcOff;
        std::vector<std::uint32_t> funcs;

        /// @name Memo runs only.
        /// @{
        /** CSR by closure id: functions its root query touched. */
        std::vector<std::uint32_t> touchOff;
        std::vector<std::uint32_t> touchPool;
        /** By closure id: the root query read an unattributable value. */
        std::vector<char> poisoned;
        /** By function raw id: D(scc(f)); 0 = poisoned. */
        std::vector<std::uint64_t> digest;
        /// @}
    };

    /** Build flat_ (sequential; publishes fresh closures). With
     *  `owners` set, capture each closure's touched list. */
    void buildFlatHints(WalkStats &stats, const std::uint32_t *owners,
                        std::size_t owners_count);

    /** Fill flat_.digest from this run's substrate hashes. */
    void buildClosureDigests(const std::uint64_t *substrate,
                             std::size_t count);

    /** Mark the call-graph SCCs whose call closure holds a matching
     *  hint. */
    void markRelevant(Worker &w) const;

    /** False when the relevance filter rules out `func`'s summary; a
     *  capturing worker then records the skip. */
    bool isRelevant(Worker &w, std::uint32_t func) const;

    /** Replay a hint closure's root-query touches (memo runs). */
    void replayClosure(Worker &w, std::uint32_t closure) const;

    /**
     * Record what evaluating `site` would read when the relevance
     * filter rules out its own function (memo runs): the hint closures
     * and callees of the blocks backward-reachable from it. Capture
     * bookkeeping, not evaluation: it counts no steps.
     */
    void captureIrrelevantSite(Worker &w, InstId site) const;

    /** Append the types of `inst`'s hints whose roots meet the
     *  candidate's root set; true when any matched. */
    bool collectMatching(Worker &w, std::uint32_t inst,
                         std::vector<TypeRef> &types) const;

    /** Enter summary node `node` (site scans start at `site`). */
    void openNode(Worker &w, std::uint32_t node, InstId site) const;

    /** Leave the innermost node; its result joins its parent's. */
    void closeNode(Worker &w) const;

    /** REACHABLE_TYPES of `site` (sorted, distinct). */
    void evalSite(Worker &w, InstId site, std::vector<TypeRef> &types) const;

    Module &module_;
    const Ddg &ddg_;
    const HintIndex &hints_;
    TypeEnv &env_;
    const ModularSchedule &schedule_;
    FnSummaryStore &summaries_;
    WalkBudget budget_;
    RefineMemo *memo_;
    InstIndex instIndex_;
    BlockGraph graph_;
    FlatHints flat_;
    bool flatReady_ = false;
};

} // namespace manta

#endif // MANTA_CORE_REFINE_FLOW_H
