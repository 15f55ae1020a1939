/**
 * @file
 * Context-sensitive DDG traversal (the machinery behind Algorithm 1).
 *
 * Traversals maintain a calling-context stack: crossing an edge that
 * enters a function pushes its call site; crossing an edge that exits
 * a function must match the top of the stack (or the stack is empty,
 * meaning the traversal ascended past its starting context). This is
 * the standard realizable-paths CFL-reachability discipline [Reps et
 * al.]; the acyclic preprocessing guarantees termination.
 *
 * Backward steps over add/sub edges consult the flow-insensitive type
 * environment first ("resolve the type of operands first and perform
 * feasibility checking", Section 4.2.1): a numeric operand cannot be
 * the alias root of a pointer result.
 *
 * Calling contexts are 32-bit ids into a hash-consed context tree
 * (push/pop/top are O(1) and a frame is two words), visited/root marks
 * live in epoch-stamped flat arrays reused across queries with zero
 * clearing, pointer-arithmetic feasibility is cached per edge, and
 * whole findRoots/collectTypes closures are memoized per start node so
 * the thousands of over-approximated values queried in a refinement
 * pass share work. Truncated (budget-limited) queries are never
 * memoized. The original walker (a std::set visited per query, a
 * context vector copied on every crossing, no memo) survives only as
 * the test-side reference in reference/refine_ref.h; both expand the
 * same frames in the same order, so roots and collected types agree
 * element for element.
 *
 * A walker instance assumes the DDG's pruning state and the type
 * environment are frozen for its lifetime; the refinement stages
 * create one walker per pass (or per query batch) to guarantee this.
 */
#ifndef MANTA_CORE_DDG_WALK_H
#define MANTA_CORE_DDG_WALK_H

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/ddg.h"
#include "core/fn_summary.h"
#include "core/hints.h"
#include "core/unify.h"
#include "support/flat_map.h"

namespace manta {

class ModularSchedule;

/**
 * Budgets of the DDG queries (FIND_ROOTS / COLLECT_TYPES). They bound
 * the context stage's closures and every alias-root query; the
 * flow-sensitive stage's CFG evaluation is exact and reads neither.
 */
struct WalkBudget
{
    std::size_t maxVisited = 10000; ///< Nodes per query.
    std::size_t maxStack = 32;      ///< Calling-context depth.
};

/**
 * Feasibility of traversing a ptr-arith edge as an alias link ("resolve
 * the type of operands first", Section 4.2.1); every other edge kind
 * is feasible. `env` may be null (points-to evidence only).
 */
bool arithEdgeFeasible(const Ddg &ddg, const TypeEnv *env,
                       const TypeTable &types, const Ddg::Edge &edge);

/** Work counters for one walker (aggregated into InferenceProfile). */
struct WalkStats
{
    std::size_t queries = 0;     ///< findRoots/collectTypes calls.
    std::size_t memoHits = 0;    ///< Queries answered from summaries.
    std::size_t summaryHits = 0; ///< Subset answered by the shared store.
    std::size_t truncated = 0;   ///< Queries that hit maxVisited.
    std::size_t steps = 0;       ///< Frames expanded across all queries.
    std::size_t peakCtxDepth = 0; ///< Deepest calling context reached.

    void
    merge(const WalkStats &other)
    {
        queries += other.queries;
        memoHits += other.memoHits;
        summaryHits += other.summaryHits;
        truncated += other.truncated;
        steps += other.steps;
        if (other.peakCtxDepth > peakCtxDepth)
            peakCtxDepth = other.peakCtxDepth;
    }
};

/**
 * Hash-consed calling-context tree: a context stack is an id; pushing
 * a call site maps (parent id, site) to a child id, popping returns
 * the parent. Identical stacks always intern to the same id, so the
 * visited key's "context top" comparison degenerates to comparing two
 * 32-bit sites, and a traversal frame carries no heap state.
 */
class CtxInterner
{
  public:
    static constexpr std::uint32_t kEmpty = 0;
    /** Sentinel "no site" top used by visited keys for empty stacks. */
    static constexpr std::uint32_t kNoSite = 0xffffffffu;

    CtxInterner() { nodes_.push_back(Node{kEmpty, kNoSite, 0}); }

    /** Child of `ctx` through call site `site` (interned). */
    std::uint32_t
    push(std::uint32_t ctx, InstId site)
    {
        const std::uint64_t key =
            (static_cast<std::uint64_t>(ctx) << 32) | site.raw();
        const auto [id, inserted] =
            map_.insert(key, static_cast<std::uint32_t>(nodes_.size()));
        if (inserted)
            nodes_.push_back(Node{ctx, site.raw(), nodes_[ctx].depth + 1});
        return id;
    }

    std::uint32_t pop(std::uint32_t ctx) const { return nodes_[ctx].parent; }

    /** Raw call site on top, or kNoSite for the empty context. */
    std::uint32_t top(std::uint32_t ctx) const { return nodes_[ctx].site; }

    std::uint32_t depth(std::uint32_t ctx) const { return nodes_[ctx].depth; }

  private:
    struct Node
    {
        std::uint32_t parent;
        std::uint32_t site;
        std::uint32_t depth;
    };

    std::vector<Node> nodes_;
    FlatU64Map map_;
};

/**
 * Per-node (node, context-top) visited marks with a generation
 * counter: starting a new query bumps the epoch instead of clearing
 * anything, and a slot's top-list is lazily reset on its first touch
 * of the new epoch. No allocation in steady state.
 */
class EpochVisited
{
  public:
    void
    ensure(std::size_t nodes)
    {
        if (slots_.size() < nodes)
            slots_.resize(nodes);
    }

    void newEpoch() { ++epoch_; }

    /** True when (node, top) had not been visited this epoch. */
    bool
    insert(std::uint32_t node, std::uint32_t top)
    {
        Slot &slot = slots_[node];
        if (slot.epoch != epoch_) {
            slot.epoch = epoch_;
            slot.first = top;
            slot.rest.clear();
            return true;
        }
        if (slot.first == top)
            return false;
        for (const std::uint32_t seen : slot.rest) {
            if (seen == top)
                return false;
        }
        slot.rest.push_back(top);
        return true;
    }

  private:
    struct Slot
    {
        std::uint64_t epoch = 0;
        std::uint32_t first = 0;
        std::vector<std::uint32_t> rest; ///< Rarely used; reused capacity.
    };

    std::vector<Slot> slots_;
    std::uint64_t epoch_ = 0;
};

/** Epoch-stamped once-per-query membership flags (root sets). */
class EpochFlags
{
  public:
    void
    ensure(std::size_t nodes)
    {
        if (marks_.size() < nodes)
            marks_.resize(nodes, 0);
    }

    void newEpoch() { ++epoch_; }

    /** Mark `node` (grows on demand); true when not yet marked. */
    bool
    mark(std::uint32_t node)
    {
        if (node >= marks_.size())
            marks_.resize(node + 1, 0);
        if (marks_[node] == epoch_)
            return false;
        marks_[node] = epoch_;
        return true;
    }

    /**
     * Membership test. Queried ids are NOT bounded by the marked set
     * (flow refinement probes hint roots against a candidate's root
     * set), so ids past the mark frontier answer false rather than
     * reading out of bounds.
     */
    bool
    marked(std::uint32_t node) const
    {
        return node < marks_.size() && marks_[node] == epoch_;
    }

  private:
    std::vector<std::uint64_t> marks_;
    std::uint64_t epoch_ = 1;
};

/** Context-validated walks over the DDG. */
class DdgWalker
{
  public:
    /**
     * @param ddg The dependence graph (pruned edges are skipped).
     * @param env Flow-insensitive bounds for arithmetic feasibility;
     *            may be null (no feasibility pruning). Only the
     *            mutation-free const read path is used.
     * @param types The shared type table.
     * @param budget Traversal budgets.
     */
    DdgWalker(const Ddg &ddg, const TypeEnv *env, TypeTable &types,
              WalkBudget budget = {})
        : ddg_(ddg), env_(env), types_(types), budget_(budget)
    {}

    /**
     * FIND_ROOTS (Algorithm 1): context-valid backward closure of `v`;
     * returns the nodes with no further valid incoming dependence.
     */
    std::vector<ValueId> findRoots(ValueId v);

    /**
     * COLLECT_TYPES (Algorithm 1): context-valid forward traversal from
     * `root`, returning every type annotation on reached nodes.
     */
    std::vector<TypeRef> collectTypes(ValueId root, const HintIndex &hints);

    /**
     * Memoized FIND_ROOTS: the returned reference stays valid until
     * the next walker call; truncated queries are never cached.
     */
    const std::vector<ValueId> &rootsOf(ValueId v);

    /**
     * Memoized COLLECT_TYPES. All calls on one walker must pass the
     * same HintIndex.
     */
    const std::vector<TypeRef> &typesOf(ValueId root,
                                        const HintIndex &hints);

    /** Did the previous query exhaust its budget? */
    bool lastQueryTruncated() const { return truncated_; }

    /** Work counters accumulated across every query on this walker. */
    const WalkStats &stats() const { return stats_; }

    /**
     * Zero the counters (scratch, memos, and interner are untouched).
     * Lets a pooled walker report per-pack stats when it is recycled
     * across scheduling packs instead of constructed per pack.
     */
    void resetStats() { stats_ = WalkStats{}; }

    /// @name Shared cross-SCC summaries (core/fn_summary.h).
    ///
    /// In modular bottom-up mode the refinement stages attach a frozen
    /// FnSummaryStore for the duration of one scheduling wave: when a
    /// rootsOf/typesOf query misses this walker's own memo, the store
    /// is consulted before walking, so closures computed during callee
    /// waves are instantiated instead of re-traversed. A store hit
    /// replays the entry's recorded touched-function list when touch
    /// capture is on (an entry recorded without capture poisons the
    /// candidate, mirroring replayTouched). The harvest accessors
    /// expose this walker's freshly memoized closures so the scheduler
    /// can publish them into the store between waves.
    /// @{

    /** Attach (or detach with nullptr) the read-only shared store. */
    void
    attachSharedSummaries(const FnSummaryStore *store)
    {
        shared_ = store;
    }

    /**
     * Move this walker's freshly memoized closures (with their
     * touched-function lists, when capture was on) into `delta` for
     * publication; the local memo is left empty. Entries answered by
     * the shared store were never re-memoized locally, so a harvest
     * contains only closures first computed by this walker.
     */
    void harvestSummaries(FnSummaryStore::Delta &delta,
                          const ModularSchedule &sched);
    /// @}

    /// @name Touch capture (incremental re-analysis, core/refine_memo.h).
    ///
    /// When enabled, every query records the owning function of every
    /// value it reads (visited nodes AND examined edge endpoints - a
    /// skipped edge was still consulted for kind/pruning/feasibility).
    /// Memoized queries store their touched-function list alongside the
    /// summary and replay it on hits, so a candidate's touched-set is
    /// complete even when its queries were answered from summaries
    /// computed for an earlier candidate.
    /// @{

    /** `owners[value raw id]` = owning function raw id (invalid raw =
     *  unattributable; touching such a value poisons the candidate). */
    void
    enableTouchCapture(const std::uint32_t *owners, std::size_t count)
    {
        capture_ = owners != nullptr;
        owners_ = owners;
        owners_count_ = count;
    }

    /** Reset the per-candidate touched set (epoch bump, no clearing). */
    void
    beginCandidate()
    {
        cand_funcs_seen_.newEpoch();
        cand_funcs_.clear();
        cand_poisoned_ = false;
    }

    /** Explicitly add a function (the flow stage's block reads). */
    void
    noteFunc(std::uint32_t func_raw)
    {
        if (!capture_)
            return;
        if (cand_funcs_seen_.mark(func_raw))
            cand_funcs_.push_back(func_raw);
    }

    /** True when the candidate touched an unattributable value. */
    bool candidatePoisoned() const { return cand_poisoned_; }

    /** Whether capture is on (callers gate their own noteFunc reads). */
    bool captureEnabled() const { return capture_; }

    /** Raw function ids touched since beginCandidate (unordered). */
    const std::vector<std::uint32_t> &
    candidateTouched() const
    {
        return cand_funcs_;
    }
    /// @}

  private:
    bool edgeFeasibleCached(std::uint32_t index, const Ddg::Edge &edge);

    /** Record one value read by the current query (capture only). */
    void
    touchValue(std::uint32_t value_raw)
    {
        if (!capture_)
            return;
        const std::uint32_t owner = value_raw < owners_count_
                                        ? owners_[value_raw]
                                        : 0xffffffffu;
        if (owner == 0xffffffffu) {
            cand_poisoned_ = true;
            return;
        }
        if (query_funcs_seen_.mark(owner))
            query_funcs_.push_back(owner);
    }

    void beginQueryCapture();
    void mergeQueryIntoCandidate();
    /** Replay a shared-store entry's touched list (or poison). */
    void replayStored(const std::vector<std::uint32_t> &touched,
                      bool has_touched);
    /** Replay a memoized query's stored touched list (or poison). */
    void replayTouched(
        const std::unordered_map<std::uint32_t,
                                 std::vector<std::uint32_t>> &funcs,
        std::uint32_t key);

    const Ddg &ddg_;
    const TypeEnv *env_;
    TypeTable &types_;
    WalkBudget budget_;
    const FnSummaryStore *shared_ = nullptr;
    bool truncated_ = false;
    WalkStats stats_;

    CtxInterner interner_;
    EpochVisited visited_;
    EpochFlags root_seen_;
    /** Per-edge feasibility memo: 0 unknown, 1 feasible, 2 blocked. */
    std::vector<std::uint8_t> edge_feasible_;

    /** Cross-query summaries (non-truncated queries only). */
    std::unordered_map<std::uint32_t, std::vector<ValueId>> roots_memo_;
    std::unordered_map<std::uint32_t, std::vector<TypeRef>> types_memo_;
    /** Keys whose memo entries were copied in from the shared store on
     *  a hit. Repeated queries then hit the small, hot local memo
     *  instead of re-probing the whole-module store; harvest skips
     *  these keys (the store already owns identical entries). */
    std::unordered_set<std::uint32_t> borrowed_roots_;
    std::unordered_set<std::uint32_t> borrowed_types_;
    const HintIndex *memo_hints_ = nullptr;
    /** Holds truncated (uncacheable) results for the by-ref accessors. */
    std::vector<ValueId> scratch_roots_;
    std::vector<TypeRef> scratch_types_;

    /// @name Touch-capture state (see enableTouchCapture).
    /// @{
    bool capture_ = false;
    const std::uint32_t *owners_ = nullptr;
    std::size_t owners_count_ = 0;
    EpochFlags query_funcs_seen_;
    std::vector<std::uint32_t> query_funcs_;
    EpochFlags cand_funcs_seen_;
    std::vector<std::uint32_t> cand_funcs_;
    bool cand_poisoned_ = false;
    /** Touched-function lists stored alongside the query summaries. */
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
        roots_funcs_;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
        types_funcs_;
    /// @}
};

} // namespace manta

#endif // MANTA_CORE_DDG_WALK_H
