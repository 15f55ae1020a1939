#include "core/refine_flow.h"

#include <memory>

#include "core/wave_walk.h"

namespace manta {

/**
 * Per-worker walk-phase scratch. The DdgWalker answers the alias-root
 * queries (memoized within the worker); the interner/epoch structures
 * back the CFG walks. Everything a worker touches beyond this is
 * frozen for the whole phase. The stats/harvest trio is what
 * runWalkWaves (core/wave_walk.h) drives.
 */
struct FlowRefinement::Worker
{
    Worker(const Ddg &ddg, const TypeEnv *env, TypeTable &types,
           WalkBudget budget)
        : walker(ddg, env, types, budget)
    {}

    void
    resetStats()
    {
        walker.resetStats();
        cfgStats = WalkStats{};
    }

    WalkStats
    stats() const
    {
        WalkStats merged = walker.stats();
        merged.merge(cfgStats);
        return merged;
    }

    void
    harvestSummaries(FnSummaryStore::Delta &delta,
                     const ModularSchedule &schedule)
    {
        walker.harvestSummaries(delta, schedule);
    }

    DdgWalker walker;
    CtxInterner ctx;        ///< Contexts for the CFG walk (call insts).
    EpochVisited visited;   ///< (inst, ctx-top) marks for the CFG walk.
    EpochFlags roots;       ///< Current candidate's alias-root set.
    WalkStats cfgStats;     ///< CFG-walk counters (walker has its own).
};

FlowRefinement::FlowRefinement(Module &module, const Ddg &ddg,
                               const HintIndex &hints, TypeEnv &env,
                               const ModularSchedule &schedule,
                               FnSummaryStore &summaries, WalkBudget budget,
                               RefineMemo *memo)
    : module_(module), ddg_(ddg), hints_(hints), env_(env),
      schedule_(schedule), summaries_(summaries), budget_(budget),
      memo_(memo), instIndex_(module)
{}

const Cfg &
FlowRefinement::cfgOf(FuncId func)
{
    const auto it = cfg_cache_.find(func.raw());
    if (it != cfg_cache_.end())
        return it->second;
    return cfg_cache_.emplace(func.raw(), Cfg(module_, func)).first->second;
}

namespace {

/** CFG walk item: instruction plus interned context. */
struct WalkItem
{
    std::uint32_t inst;
    std::uint32_t ctx;
};

} // namespace

std::vector<TypeRef>
FlowRefinement::reachableTypes(Worker &w, InstId site)
{
    ++w.cfgStats.queries;
    std::vector<TypeRef> types;
    w.visited.ensure(site.raw() + 1);
    w.visited.newEpoch();
    std::vector<WalkItem> work;
    work.push_back(WalkItem{site.raw(), CtxInterner::kEmpty});
    w.visited.insert(site.raw(), CtxInterner::kNoSite);

    std::size_t steps = 0;
    while (!work.empty()) {
        if (++steps > budget_.maxVisited) {
            ++w.cfgStats.truncated;
            break;
        }
        const WalkItem item = work.back();
        work.pop_back();

        const InstId iid(static_cast<InstId::RawType>(item.inst));
        const Instruction &inst = module_.inst(iid);
        // Touch capture: the walk read this instruction (and below,
        // possibly a callee's block structure); its function's content
        // hash covers the CFG shape, positions and hints read here.
        if (w.walker.captureEnabled())
            w.walker.noteFunc(module_.block(inst.parent).func.raw());

        // Annotation check: the first alias annotation met along the
        // path is collected and strong-updates (stops) the path.
        bool stop = false;
        for (const TypeHint &hint : hints_.at(iid)) {
            for (const ValueId r : w.walker.rootsOf(hint.value)) {
                if (w.roots.marked(r.raw())) {
                    types.push_back(hint.type);
                    stop = true;
                    break;
                }
            }
        }
        if (stop)
            continue;

        auto enqueue = [&](InstId next, std::uint32_t ctx) {
            w.visited.ensure(next.raw() + 1);
            if (w.visited.insert(next.raw(), w.ctx.top(ctx)))
                work.push_back(WalkItem{next.raw(), ctx});
        };

        // Descend into direct callees: the callee body executes before
        // control returns to this point.
        if (inst.op == Opcode::Call && inst.callee.valid() &&
                w.ctx.depth(item.ctx) < budget_.maxStack) {
            w.walker.noteFunc(inst.callee.raw());
            const Function &callee = module_.func(inst.callee);
            for (const BlockId bid : callee.blocks) {
                const BasicBlock &bb = module_.block(bid);
                if (bb.insts.empty())
                    continue;
                const Instruction &term = module_.inst(bb.insts.back());
                if (term.op == Opcode::Ret) {
                    const std::uint32_t ctx = w.ctx.push(item.ctx, iid);
                    if (w.ctx.depth(ctx) > w.cfgStats.peakCtxDepth)
                        w.cfgStats.peakCtxDepth = w.ctx.depth(ctx);
                    enqueue(bb.insts.back(), ctx);
                }
            }
        }

        const BasicBlock &bb = module_.block(inst.parent);
        const std::size_t pos = instIndex_.positionInBlock(iid);
        if (pos > 0) {
            enqueue(bb.insts[pos - 1], item.ctx);
            continue;
        }

        const Cfg &cfg = cfgOf(bb.func);
        for (const BlockId pred : cfg.preds(inst.parent)) {
            const BasicBlock &pb = module_.block(pred);
            if (!pb.insts.empty())
                enqueue(pb.insts.back(), item.ctx);
        }

        // At the function entry: return to the call site we descended
        // from. The flow-sensitive walk never ascends past its starting
        // frame - collecting hints from arbitrary callers without a
        // context is the context-sensitive stage's job, not this one's
        // (mixing them would re-introduce the polymorphic merging that
        // Section 4.2.1 exists to avoid).
        const Function &fn = module_.func(bb.func);
        if (inst.parent == fn.entry() && item.ctx != CtxInterner::kEmpty) {
            const InstId ret_site(
                static_cast<InstId::RawType>(w.ctx.top(item.ctx)));
            enqueue(ret_site, w.ctx.pop(item.ctx));
        }
    }
    w.cfgStats.steps += steps;
    return types;
}

void
FlowRefinement::buildFlatHints(WalkStats &stats)
{
    // Single sequential pass in instruction order: one walker computes
    // (or borrows from the shared store) the alias-root closure of
    // every hint value and flattens it into the pooled arrays. The
    // pass is deterministic regardless of MANTA_JOBS, and the fresh
    // closures it publishes seed the store for the walk waves.
    TypeTable &tt = module_.types();
    Worker w(ddg_, &env_, tt, budget_);
    w.walker.attachSharedSummaries(&summaries_);
    const std::size_t ni = module_.numInsts();
    flat_.instSpan.assign(ni, {0, 0});
    // Hint values repeat across sites; flatten each closure once.
    std::unordered_map<std::uint32_t,
                       std::pair<std::uint32_t, std::uint32_t>> pooled;
    for (std::size_t i = 0; i < ni; ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const std::vector<TypeHint> &hints = hints_.at(iid);
        if (hints.empty())
            continue;
        flat_.instSpan[i] = {static_cast<std::uint32_t>(flat_.spans.size()),
                             static_cast<std::uint32_t>(hints.size())};
        for (const TypeHint &hint : hints) {
            auto [it, fresh] = pooled.try_emplace(hint.value.raw());
            if (fresh) {
                const auto begin =
                    static_cast<std::uint32_t>(flat_.rootPool.size());
                for (const ValueId r : w.walker.rootsOf(hint.value))
                    flat_.rootPool.push_back(r.raw());
                it->second = {begin,
                              static_cast<std::uint32_t>(
                                  flat_.rootPool.size()) - begin};
            }
            flat_.spans.push_back(
                {hint.type, it->second.first, it->second.second});
        }
    }
    stats.merge(w.walker.stats());
    FnSummaryStore::Delta delta;
    w.walker.harvestSummaries(delta, schedule_);
    summaries_.publish(std::move(delta));
}

void
FlowRefinement::buildFlatCfg()
{
    // Flatten the backward-step relation (see reachableTypes) into
    // the tagged adjacency, emitting entries in the interpreted push
    // order so walk DFS order - and the truncation point of budget-
    // limited walks - is preserved exactly.
    const std::size_t ni = module_.numInsts();
    fcfg_.rowSpan.assign(ni, {0, 0});
    for (std::size_t i = 0; i < ni; ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module_.inst(iid);
        const auto begin = static_cast<std::uint32_t>(fcfg_.pool.size());

        if (inst.op == Opcode::Call && inst.callee.valid()) {
            const Function &callee = module_.func(inst.callee);
            for (const BlockId bid : callee.blocks) {
                const BasicBlock &bb = module_.block(bid);
                if (bb.insts.empty())
                    continue;
                const Instruction &term = module_.inst(bb.insts.back());
                if (term.op == Opcode::Ret)
                    fcfg_.pool.push_back((FlatCfg::kCall << 30) |
                                         bb.insts.back().raw());
            }
        }

        const BasicBlock &bb = module_.block(inst.parent);
        const std::size_t pos = instIndex_.positionInBlock(iid);
        if (pos > 0) {
            fcfg_.pool.push_back((FlatCfg::kStep << 30) |
                                 bb.insts[pos - 1].raw());
        } else {
            const Cfg &cfg = cfgOf(bb.func);
            for (const BlockId pred : cfg.preds(inst.parent)) {
                const BasicBlock &pb = module_.block(pred);
                if (!pb.insts.empty())
                    fcfg_.pool.push_back((FlatCfg::kStep << 30) |
                                         pb.insts.back().raw());
            }
            const Function &fn = module_.func(bb.func);
            if (inst.parent == fn.entry())
                fcfg_.pool.push_back(FlatCfg::kAscend << 30);
        }
        fcfg_.rowSpan[i] = {begin,
                            static_cast<std::uint32_t>(fcfg_.pool.size()) -
                                begin};
    }
    flatReady_ = true;
}

std::vector<TypeRef>
FlowRefinement::reachableTypesFlat(Worker &w, InstId site)
{
    ++w.cfgStats.queries;
    std::vector<TypeRef> types;
    w.visited.ensure(site.raw() + 1);
    w.visited.newEpoch();
    std::vector<WalkItem> work;
    work.push_back(WalkItem{site.raw(), CtxInterner::kEmpty});
    w.visited.insert(site.raw(), CtxInterner::kNoSite);

    std::size_t steps = 0;
    while (!work.empty()) {
        if (++steps > budget_.maxVisited) {
            ++w.cfgStats.truncated;
            break;
        }
        const WalkItem item = work.back();
        work.pop_back();

        // Annotation check against the flattened hint index: the exact
        // root sets rootsOf() would answer, minus the memo probe.
        bool stop = false;
        const auto [hfirst, hcount] = flat_.instSpan[item.inst];
        for (std::uint32_t h = 0; h < hcount; ++h) {
            const FlatHints::Span &span = flat_.spans[hfirst + h];
            for (std::uint32_t j = 0; j < span.count; ++j) {
                if (w.roots.marked(flat_.rootPool[span.begin + j])) {
                    types.push_back(span.type);
                    stop = true;
                    break;
                }
            }
        }
        if (stop)
            continue;

        const std::uint32_t cur_top = w.ctx.top(item.ctx);
        const auto [rfirst, rcount] = fcfg_.rowSpan[item.inst];
        for (std::uint32_t e = 0; e < rcount; ++e) {
            const std::uint32_t entry = fcfg_.pool[rfirst + e];
            const std::uint32_t tag = entry >> 30;
            const std::uint32_t target = entry & FlatCfg::kPayload;
            if (tag == FlatCfg::kStep) {
                w.visited.ensure(target + 1);
                if (w.visited.insert(target, cur_top))
                    work.push_back(WalkItem{target, item.ctx});
            } else if (tag == FlatCfg::kCall) {
                if (w.ctx.depth(item.ctx) >= budget_.maxStack)
                    continue;
                const std::uint32_t ctx = w.ctx.push(
                    item.ctx, InstId(static_cast<InstId::RawType>(item.inst)));
                if (w.ctx.depth(ctx) > w.cfgStats.peakCtxDepth)
                    w.cfgStats.peakCtxDepth = w.ctx.depth(ctx);
                w.visited.ensure(target + 1);
                if (w.visited.insert(target, item.inst))
                    work.push_back(WalkItem{target, ctx});
            } else if (item.ctx != CtxInterner::kEmpty) {
                // Ascend to the call site we descended from.
                const std::uint32_t up = w.ctx.pop(item.ctx);
                w.visited.ensure(cur_top + 1);
                if (w.visited.insert(cur_top, w.ctx.top(up)))
                    work.push_back(WalkItem{cur_top, up});
            }
        }
    }
    w.cfgStats.steps += steps;
    return types;
}

void
FlowRefinement::candidateSites(ValueId v, CandidateOut &out) const
{
    // Sites: the def site plus every use site.
    const Value &value = module_.value(v);
    if (value.kind == ValueKind::InstResult) {
        out.defSite = value.inst;
    } else if (value.kind == ValueKind::Argument) {
        const Function &fn = module_.func(value.argFunc);
        if (fn.entry().valid() && !module_.block(fn.entry()).insts.empty())
            out.defSite = module_.block(fn.entry()).insts.front();
    }
    if (out.defSite.valid())
        out.sites.push_back(out.defSite);
    for (const InstId user : instIndex_.users(v))
        out.sites.push_back(user);
}

void
FlowRefinement::processCandidate(Worker &w, ValueId v, CandidateOut &out)
{
    // Root set for the alias check.
    w.roots.newEpoch();
    for (const ValueId r : w.walker.rootsOf(v)) {
        w.roots.ensure(r.raw() + 1);
        w.roots.mark(r.raw());
    }

    out.siteTypes.reserve(out.sites.size());
    for (const InstId s : out.sites) {
        out.siteTypes.push_back(flatReady_ ? reachableTypesFlat(w, s)
                                           : reachableTypes(w, s));
    }
}

FlowRefineResult
FlowRefinement::run(const std::vector<ValueId> &candidates)
{
    FlowRefineResult result;
    TypeTable &tt = module_.types();
    const std::size_t n = candidates.size();
    std::vector<CandidateOut> collected(n);

    // Phase 0: site enumeration (cheap, module-derived) and memo
    // consult. Hits skip the walk phase; their cached per-site bounds
    // line up positionally with the regenerated site list.
    const bool use_memo = memo_ != nullptr;
    for (std::size_t i = 0; i < n; ++i)
        candidateSites(candidates[i], collected[i]);
    std::vector<FlowCached> cached(use_memo ? n : 0);
    std::vector<char> hit(n, 0);
    std::vector<std::size_t> misses;
    misses.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (use_memo && memo_->lookupFlow(candidates[i],
                                          collected[i].sites.size(),
                                          cached[i])) {
            hit[i] = 1;
        } else {
            misses.push_back(i);
        }
    }
    const std::size_t m = misses.size();

    const std::uint32_t *owners = nullptr;
    std::size_t owners_count = 0;
    if (use_memo)
        owners = memo_->valueOwners(&owners_count);

    std::vector<std::vector<std::uint32_t>> touched(use_memo ? m : 0);
    std::vector<char> poisoned(m, 0);

    // Phase 1: traversal, reading only frozen state.
    if (m > 0) {
        // Build every per-function CFG up front; the lazy cache would
        // be a write from multiple workers.
        for (std::size_t f = 0; f < module_.numFuncs(); ++f)
            cfgOf(FuncId(static_cast<FuncId::RawType>(f)));
        // Touch capture needs the per-hint rootsOf() calls to record
        // which functions a candidate's answer read, so the flattened
        // index only serves memo-less (batch) runs - and only modules
        // large enough to amortize the whole-module flattening pass
        // (kFlatIndexMinInsts; tiny modules fall back to the
        // interpreted walk, which answers identically).
        if (!use_memo && flatIndexEligible(module_)) {
            buildFlatHints(result.walk);
            buildFlatCfg();
        }
    }
    auto make = [&]() {
        auto w = std::make_unique<Worker>(ddg_, &env_, tt, budget_);
        w->walker.attachSharedSummaries(&summaries_);
        if (use_memo)
            w->walker.enableTouchCapture(owners, owners_count);
        return w;
    };
    auto walk = [&](Worker &w, std::size_t k) {
        if (use_memo)
            w.walker.beginCandidate();
        processCandidate(w, candidates[misses[k]], collected[misses[k]]);
        if (use_memo) {
            touched[k] = w.walker.candidateTouched();
            poisoned[k] = w.walker.candidatePoisoned() ? 1 : 0;
        }
    };
    result.walk.merge(runWalkWaves<Worker>(schedule_, summaries_, candidates,
                                           misses, make, walk));

    // Phase 2: merge, sequentially in candidate/site order (join/meet
    // intern new type nodes; interning order defines TypeRef ids).
    std::size_t mi = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const ValueId v = candidates[i];
        const CandidateOut &out = collected[i];

        if (hit[i]) {
            ++result.reused;
            const FlowCached &rec = cached[i];
            for (std::size_t j = 0; j < out.sites.size(); ++j)
                result.siteBounds.emplace(SiteVar{v, out.sites[j]},
                                          rec.siteBounds[j]);
            if (!rec.hasRefined) {
                ++result.lost;
            } else {
                result.refined.emplace(v, rec.refined);
                if (rec.refined.classify(tt) == TypeClass::Precise)
                    ++result.resolved;
            }
            continue;
        }
        const std::size_t k = mi++;

        FlowCached rec;
        rec.siteBounds.reserve(out.sites.size());
        BoundPair def_bp = BoundPair::anyType(tt);
        for (std::size_t j = 0; j < out.sites.size(); ++j) {
            const InstId s = out.sites[j];
            const std::vector<TypeRef> &types = out.siteTypes[j];
            if (types.empty()) {
                // Site refined to unknown (Section 6.4 aggression).
                result.siteBounds.emplace(SiteVar{v, s},
                                          BoundPair::anyType(tt));
                rec.siteBounds.push_back(BoundPair::anyType(tt));
                continue;
            }
            const BoundPair site_bp(tt.joinAll(types), tt.meetAll(types));
            result.siteBounds.emplace(SiteVar{v, s}, site_bp);
            rec.siteBounds.push_back(site_bp);
            if (s == out.defSite)
                def_bp = site_bp;
        }

        // The variable-level flow-sensitive type is its def-site type.
        // Per Algorithm 2 line 9 the bounds are only updated when type
        // hints were collected; a def site with no reachable hints
        // keeps the previous stage's interval (standalone FS therefore
        // leaves such variables unknown - the Section 6.4 aggression).
        if (def_bp.classify(tt) == TypeClass::Unknown) {
            ++result.lost;
        } else {
            def_bp = BoundPair::refineWithin(tt, def_bp,
                                             env_.boundsOf(TypeVar::of(v)));
            result.refined.emplace(v, def_bp);
            rec.hasRefined = true;
            rec.refined = def_bp;
            if (def_bp.classify(tt) == TypeClass::Precise)
                ++result.resolved;
        }
        if (use_memo && !poisoned[k])
            memo_->storeFlow(v, rec, touched[k]);
    }
    return result;
}

} // namespace manta
