#include "core/ddg_walk.h"

#include <unordered_set>

#include "core/fn_summary.h"
#include "core/modular.h"

namespace manta {

namespace {

/** Traversal frame: node plus interned context, trivially copyable. */
struct Frame
{
    std::uint32_t node;
    std::uint32_t ctx;
};

} // namespace

bool
arithEdgeFeasible(const Ddg &ddg, const TypeEnv *env,
                  const TypeTable &types, const Ddg::Edge &edge)
{
    if (edge.kind != DepKind::PtrArith)
        return true;
    // "Resolve the type of operands first and perform feasibility
    // checking" (Section 4.2.1). The points-to analysis is the
    // resolver of record for pointer-ness: an alias link through
    // add/sub must connect two pointers or two numerics - a
    // location-less operand feeding a location-bearing result is the
    // displacement, not the base (and vice versa for pointer
    // differences).
    const PointsTo &pts = ddg.pts();
    const bool from_ptr = !pts.locs(edge.from).empty();
    const bool to_ptr = !pts.locs(edge.to).empty();
    if (from_ptr != to_ptr)
        return false;

    if (env == nullptr)
        return true;
    // Table 2 logic in traversal form: the numeric operand of a
    // pointer-producing add (or sub) is an offset, not an alias.
    const BoundPair rb = env->boundsOf(TypeVar::of(edge.to));
    const BoundPair ob = env->boundsOf(TypeVar::of(edge.from));
    auto definitely = [&](const BoundPair &bp, TypeKind kind) {
        return types.kind(bp.upper) == kind && bp.upper == bp.lower;
    };
    auto definitely_num = [&](const BoundPair &bp) {
        return bp.upper == bp.lower && types.isNumeric(bp.upper);
    };
    if (definitely(rb, TypeKind::Ptr) && definitely_num(ob))
        return false;
    if (definitely_num(rb) && definitely(ob, TypeKind::Ptr))
        return false;
    return true;
}

bool
DdgWalker::edgeFeasibleCached(std::uint32_t index, const Ddg::Edge &edge)
{
    if (edge.kind != DepKind::PtrArith)
        return true;
    if (edge_feasible_.empty())
        edge_feasible_.assign(ddg_.numEdges(), 0);
    std::uint8_t &slot = edge_feasible_[index];
    if (slot == 0)
        slot = arithEdgeFeasible(ddg_, env_, types_, edge) ? 1 : 2;
    return slot == 1;
}

void
DdgWalker::beginQueryCapture()
{
    if (!capture_)
        return;
    query_funcs_seen_.newEpoch();
    query_funcs_.clear();
}

void
DdgWalker::mergeQueryIntoCandidate()
{
    if (!capture_)
        return;
    for (const std::uint32_t f : query_funcs_) {
        if (cand_funcs_seen_.mark(f))
            cand_funcs_.push_back(f);
    }
}

void
DdgWalker::replayTouched(
    const std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
        &funcs,
    std::uint32_t key)
{
    if (!capture_)
        return;
    const auto it = funcs.find(key);
    if (it == funcs.end()) {
        // Summary predates capture being enabled; its reads are
        // unaccounted for, so the candidate cannot be cached.
        cand_poisoned_ = true;
        return;
    }
    for (const std::uint32_t f : it->second) {
        if (cand_funcs_seen_.mark(f))
            cand_funcs_.push_back(f);
    }
}

void
DdgWalker::replayStored(const std::vector<std::uint32_t> &touched,
                        bool has_touched)
{
    if (!capture_)
        return;
    if (!has_touched) {
        // Entry was harvested from a walker without capture; its reads
        // are unaccounted for, so the candidate cannot be cached.
        cand_poisoned_ = true;
        return;
    }
    for (const std::uint32_t f : touched) {
        if (cand_funcs_seen_.mark(f))
            cand_funcs_.push_back(f);
    }
}

void
DdgWalker::harvestSummaries(FnSummaryStore::Delta &delta,
                            const ModularSchedule &sched)
{
    for (auto &[key, roots] : roots_memo_) {
        if (borrowed_roots_.count(key))
            continue;
        FnSummaryStore::RootsEntry entry;
        entry.roots = std::move(roots);
        const auto t = roots_funcs_.find(key);
        if (t != roots_funcs_.end()) {
            entry.touched = std::move(t->second);
            entry.hasTouched = true;
        }
        delta.roots.emplace_back(key, sched.ownerOf(key),
                                 std::move(entry));
    }
    for (auto &[key, types] : types_memo_) {
        if (borrowed_types_.count(key))
            continue;
        FnSummaryStore::TypesEntry entry;
        entry.types = std::move(types);
        const auto t = types_funcs_.find(key);
        if (t != types_funcs_.end()) {
            entry.touched = std::move(t->second);
            entry.hasTouched = true;
        }
        delta.types.emplace_back(key, sched.ownerOf(key),
                                 std::move(entry));
    }
    roots_memo_.clear();
    roots_funcs_.clear();
    types_memo_.clear();
    types_funcs_.clear();
    borrowed_roots_.clear();
    borrowed_types_.clear();
}

std::vector<ValueId>
DdgWalker::findRoots(ValueId v)
{
    ++stats_.queries;
    beginQueryCapture();
    truncated_ = false;
    visited_.ensure(v.raw() + 1);
    root_seen_.ensure(v.raw() + 1);
    visited_.newEpoch();
    root_seen_.newEpoch();

    std::vector<ValueId> roots;
    std::vector<Frame> work;
    work.push_back(Frame{v.raw(), CtxInterner::kEmpty});
    visited_.insert(v.raw(), CtxInterner::kNoSite);
    touchValue(v.raw());

    std::size_t steps = 0;
    while (!work.empty()) {
        if (++steps > budget_.maxVisited) {
            truncated_ = true;
            break;
        }
        const Frame frame = work.back();
        work.pop_back();

        bool expanded = false;
        const ValueId node(static_cast<ValueId::RawType>(frame.node));
        for (const auto idx : ddg_.inEdges(node)) {
            const Ddg::Edge &edge = ddg_.edge(idx);
            // Examined endpoints count as reads even when the edge is
            // skipped: pruning/kind/feasibility were consulted.
            touchValue(edge.from.raw());
            if (edge.pruned || !isAliasEdge(edge.kind) ||
                    !edgeFeasibleCached(idx, edge)) {
                continue;
            }
            std::uint32_t ctx = frame.ctx;
            if (edge.kind == DepKind::CallArg) {
                // formal -> actual: exiting the callee.
                if (ctx != CtxInterner::kEmpty) {
                    if (interner_.top(ctx) != edge.site.raw())
                        continue; // CFL-invalid
                    ctx = interner_.pop(ctx);
                }
            } else if (edge.kind == DepKind::CallRet) {
                // call result -> return operand: entering the callee.
                if (interner_.depth(ctx) >= budget_.maxStack)
                    continue;
                ctx = interner_.push(ctx, edge.site);
                if (interner_.depth(ctx) > stats_.peakCtxDepth)
                    stats_.peakCtxDepth = interner_.depth(ctx);
            }
            expanded = true;
            const std::uint32_t to = edge.from.raw();
            visited_.ensure(to + 1);
            if (visited_.insert(to, interner_.top(ctx)))
                work.push_back(Frame{to, ctx});
        }
        if (!expanded) {
            root_seen_.ensure(frame.node + 1);
            if (root_seen_.mark(frame.node))
                roots.push_back(node);
        }
    }
    stats_.steps += steps;
    if (roots.empty())
        roots.push_back(v); // Algorithm 1 lines 18-19
    mergeQueryIntoCandidate();
    if (truncated_)
        ++stats_.truncated;
    return roots;
}

std::vector<TypeRef>
DdgWalker::collectTypes(ValueId root, const HintIndex &hints)
{
    ++stats_.queries;
    beginQueryCapture();
    truncated_ = false;
    visited_.ensure(root.raw() + 1);
    visited_.newEpoch();

    std::vector<TypeRef> types;
    std::vector<Frame> work;
    work.push_back(Frame{root.raw(), CtxInterner::kEmpty});
    visited_.insert(root.raw(), CtxInterner::kNoSite);
    touchValue(root.raw());

    std::size_t steps = 0;
    while (!work.empty()) {
        if (++steps > budget_.maxVisited) {
            truncated_ = true;
            break;
        }
        const Frame frame = work.back();
        work.pop_back();

        const ValueId node(static_cast<ValueId::RawType>(frame.node));
        for (const TypeHint &hint : hints.of(node))
            types.push_back(hint.type);

        for (const auto idx : ddg_.outEdges(node)) {
            const Ddg::Edge &edge = ddg_.edge(idx);
            touchValue(edge.to.raw());
            if (edge.pruned || !isAliasEdge(edge.kind) ||
                    !edgeFeasibleCached(idx, edge)) {
                continue;
            }
            std::uint32_t ctx = frame.ctx;
            if (edge.kind == DepKind::CallArg) {
                // actual -> formal: entering the callee.
                if (interner_.depth(ctx) >= budget_.maxStack)
                    continue;
                ctx = interner_.push(ctx, edge.site);
                if (interner_.depth(ctx) > stats_.peakCtxDepth)
                    stats_.peakCtxDepth = interner_.depth(ctx);
            } else if (edge.kind == DepKind::CallRet) {
                // return operand -> call result: exiting the callee.
                if (ctx != CtxInterner::kEmpty) {
                    if (interner_.top(ctx) != edge.site.raw())
                        continue; // CFL-invalid
                    ctx = interner_.pop(ctx);
                }
            }
            const std::uint32_t to = edge.to.raw();
            visited_.ensure(to + 1);
            if (visited_.insert(to, interner_.top(ctx)))
                work.push_back(Frame{to, ctx});
        }
    }
    stats_.steps += steps;
    mergeQueryIntoCandidate();
    if (truncated_)
        ++stats_.truncated;
    return types;
}

const std::vector<ValueId> &
DdgWalker::rootsOf(ValueId v)
{
    const auto it = roots_memo_.find(v.raw());
    if (it != roots_memo_.end()) {
        ++stats_.queries;
        ++stats_.memoHits;
        truncated_ = false;
        replayTouched(roots_funcs_, v.raw());
        return it->second;
    }
    if (shared_ != nullptr) {
        if (const FnSummaryStore::RootsEntry *entry =
                shared_->findRoots(v.raw())) {
            ++stats_.queries;
            ++stats_.memoHits;
            ++stats_.summaryHits;
            truncated_ = false;
            replayStored(entry->touched, entry->hasTouched);
            // Localize the borrowed closure so repeated queries hit
            // the local memo; an entry without a touched list stays
            // out of roots_funcs_, which makes later local hits poison
            // the candidate exactly as the store hit just did.
            borrowed_roots_.insert(v.raw());
            if (capture_ && entry->hasTouched)
                roots_funcs_.emplace(v.raw(), entry->touched);
            return roots_memo_.emplace(v.raw(), entry->roots)
                .first->second;
        }
    }
    std::vector<ValueId> roots = findRoots(v);
    if (truncated_) {
        // A budget-limited closure is an artifact of the budget, not a
        // summary of the graph; never reuse it.
        scratch_roots_ = std::move(roots);
        return scratch_roots_;
    }
    if (capture_)
        roots_funcs_.emplace(v.raw(), query_funcs_);
    return roots_memo_.emplace(v.raw(), std::move(roots)).first->second;
}

const std::vector<TypeRef> &
DdgWalker::typesOf(ValueId root, const HintIndex &hints)
{
    if (memo_hints_ != &hints) {
        types_memo_.clear();
        types_funcs_.clear();
        borrowed_types_.clear();
        memo_hints_ = &hints;
    }
    const auto it = types_memo_.find(root.raw());
    if (it != types_memo_.end()) {
        ++stats_.queries;
        ++stats_.memoHits;
        truncated_ = false;
        replayTouched(types_funcs_, root.raw());
        return it->second;
    }
    if (shared_ != nullptr) {
        if (const FnSummaryStore::TypesEntry *entry =
                shared_->findTypes(root.raw())) {
            ++stats_.queries;
            ++stats_.memoHits;
            ++stats_.summaryHits;
            truncated_ = false;
            replayStored(entry->touched, entry->hasTouched);
            borrowed_types_.insert(root.raw());
            if (capture_ && entry->hasTouched)
                types_funcs_.emplace(root.raw(), entry->touched);
            return types_memo_.emplace(root.raw(), entry->types)
                .first->second;
        }
    }
    std::vector<TypeRef> types = collectTypes(root, hints);
    if (truncated_) {
        scratch_types_ = std::move(types);
        return scratch_types_;
    }
    if (capture_)
        types_funcs_.emplace(root.raw(), query_funcs_);
    return types_memo_.emplace(root.raw(), std::move(types)).first->second;
}

} // namespace manta
