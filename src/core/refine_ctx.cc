#include "core/refine_ctx.h"

#include <memory>
#include <unordered_set>

#include "core/wave_walk.h"

namespace manta {

CtxRefineResult
CtxRefinement::run(const std::vector<ValueId> &over_approx)
{
    CtxRefineResult result;
    TypeTable &tt = module_.types();
    const std::size_t n = over_approx.size();

    // Phase 0: memo consult. Each lookup is a hash-compare over the
    // candidate's recorded touched-set; hits skip the walk phase
    // entirely (their stored bounds are applied in the merge phase).
    const bool use_memo = memo_ != nullptr;
    std::vector<CtxCached> cached(use_memo ? n : 0);
    std::vector<char> hit(n, 0);
    std::vector<std::size_t> misses;
    misses.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (use_memo && memo_->lookupCtx(over_approx[i], cached[i]))
            hit[i] = 1;
        else
            misses.push_back(i);
    }
    const std::size_t m = misses.size();

    const std::uint32_t *owners = nullptr;
    std::size_t owners_count = 0;
    if (use_memo)
        owners = memo_->valueOwners(&owners_count);

    std::vector<std::vector<TypeRef>> collected(m);
    std::vector<std::vector<std::uint32_t>> touched(use_memo ? m : 0);
    std::vector<char> poisoned(m, 0);

    // Phase 1: traversal. Reads only frozen state (graph, environment,
    // hints, interned types), so packs can run on the shared pool.
    auto make = [&]() {
        auto walker = std::make_unique<DdgWalker>(ddg_, &env_, tt, budget_);
        walker->attachSharedSummaries(&summaries_);
        if (use_memo)
            walker->enableTouchCapture(owners, owners_count);
        return walker;
    };
    auto walk = [&](DdgWalker &walker, std::size_t k) {
        if (use_memo)
            walker.beginCandidate();
        for (const ValueId root : walker.rootsOf(over_approx[misses[k]])) {
            const auto &types = walker.typesOf(root, hints_);
            collected[k].insert(collected[k].end(), types.begin(),
                                types.end());
        }
        if (use_memo) {
            touched[k] = walker.candidateTouched();
            poisoned[k] = walker.candidatePoisoned() ? 1 : 0;
        }
    };
    result.walk = runWalkWaves<DdgWalker>(schedule_, summaries_, over_approx,
                                          misses, make, walk);

    // Phase 2: merge, sequentially in worklist order (join/meet intern
    // new type nodes; the interning order defines TypeRef ids).
    std::vector<TypeRef> uniq;
    std::unordered_set<std::uint32_t> seen;
    std::size_t mi = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ValueId v = over_approx[i];
        if (hit[i]) {
            ++result.reused;
            if (!cached[i].hasBound) {
                result.stillOver.push_back(v);
                continue;
            }
            const BoundPair refined = cached[i].bound;
            result.refined.emplace(v, refined);
            if (refined.classify(tt) == TypeClass::Precise)
                ++result.resolved;
            else
                result.stillOver.push_back(v);
            continue;
        }
        const std::size_t k = mi++;
        // Overlapping root closures surface the same annotation many
        // times; joining a duplicate is not always a no-op once joins
        // have widened past it, so dedup (keeping first occurrence)
        // before folding.
        uniq.clear();
        seen.clear();
        for (const TypeRef t : collected[k]) {
            if (seen.insert(t.raw()).second)
                uniq.push_back(t);
        }
        if (uniq.empty()) {
            result.stillOver.push_back(v);
            if (use_memo && !poisoned[k])
                memo_->storeCtx(v, CtxCached{}, touched[k]);
            continue;
        }
        BoundPair refined(tt.joinAll(uniq), tt.meetAll(uniq));
        refined = BoundPair::refineWithin(tt, refined,
                                          env_.boundsOf(TypeVar::of(v)));
        const TypeClass cls = refined.classify(tt);
        result.refined.emplace(v, refined);
        if (cls == TypeClass::Precise) {
            ++result.resolved;
        } else {
            result.stillOver.push_back(v);
        }
        if (use_memo && !poisoned[k])
            memo_->storeCtx(v, CtxCached{true, refined}, touched[k]);
    }
    return result;
}

} // namespace manta
