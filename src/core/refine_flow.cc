#include "core/refine_flow.h"

#include <algorithm>
#include <memory>

#include "core/wave_walk.h"
#include "support/binio.h"

namespace manta {

namespace {

/**
 * Per-candidate state of one summary node: a block's Out, a callee's
 * Sum, or the site being answered.
 */
struct NodeState
{
    std::uint32_t stamp = 0;  ///< Candidate epoch that entered the node.
    bool open = false;        ///< Entered, result not yet final.
    std::uint32_t begin = 0;  ///< Result types: a slice of Worker::pool.
    std::uint32_t count = 0;
};

/** An open node: its successors are Worker::succs[begin, end). */
struct Frame
{
    std::uint32_t node;
    std::uint32_t begin;
    std::uint32_t next;
    std::uint32_t end;
    std::uint32_t calls;  ///< Callee summaries open on the path here.
};

/** acc |= [types, types + n); both sorted by raw id, distinct. */
void
unionInto(std::vector<TypeRef> &acc, const TypeRef *types, std::size_t n,
          std::vector<TypeRef> &tmp)
{
    if (n == 0)
        return;
    if (acc.empty()) {
        acc.assign(types, types + n);
        return;
    }
    tmp.clear();
    std::set_union(acc.begin(), acc.end(), types, types + n,
                   std::back_inserter(tmp));
    acc.swap(tmp);
}

/**
 * Group (key, value) pairs into a CSR over keys [0, keys): values of
 * key k are vals[off[k], off[k + 1]), sorted and distinct.
 */
void
buildCsr(std::vector<std::pair<std::uint32_t, std::uint32_t>> &pairs,
         std::size_t keys, std::vector<std::uint32_t> &off,
         std::vector<std::uint32_t> &vals)
{
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    off.assign(keys + 1, 0);
    vals.clear();
    vals.reserve(pairs.size());
    std::size_t p = 0;
    for (std::size_t k = 0; k < keys; ++k) {
        for (; p < pairs.size() && pairs[p].first == k; ++p)
            vals.push_back(pairs[p].second);
        off[k + 1] = static_cast<std::uint32_t>(vals.size());
    }
}

} // namespace

/**
 * Per-worker walk-phase scratch. The DdgWalker answers the alias-root
 * queries (memoized within the worker); the epoch-stamped summary
 * tables back the CFG evaluation and are reset per candidate.
 * Everything a worker touches beyond this is frozen for the whole
 * phase. The stats/harvest trio is what runWalkWaves
 * (core/wave_walk.h) drives. In memo runs (touch capture on) the
 * worker also records, per candidate, the hint closures it replayed
 * and the callees the relevance filter skipped.
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

    /** Reset the per-candidate capture state (memo runs). */
    void
    beginCapture()
    {
        walker.beginCandidate();
        replayed.newEpoch();
        scanned.newEpoch();
        skipSeen.newEpoch();
        skipped.clear();
        poisoned = false;
    }

    /** Fresh summary tables for the next candidate (no clearing). */
    void
    beginTables(std::size_t nodes)
    {
        if (state.size() < nodes)
            state.resize(nodes);
        ++epoch;
        pool.clear();
    }

    DdgWalker walker;
    EpochFlags roots;       ///< Current candidate's alias-root set.
    std::vector<std::uint32_t> rootList;
    EpochFlags relevant;    ///< Call-graph SCCs the relevance filter keeps.
    std::vector<std::uint32_t> queue;  ///< Relevance BFS / capture scan.

    std::vector<NodeState> state;
    std::uint32_t epoch = 0;
    std::vector<TypeRef> pool;        ///< Node result sets.
    std::vector<Frame> frames;
    std::vector<std::uint32_t> succs;
    std::vector<std::vector<TypeRef>> accs;  ///< One per open frame.
    std::vector<TypeRef> tmp;
    WalkStats cfgStats;     ///< CFG counters (walker has its own).

    EpochFlags replayed;    ///< Hint closures whose touches were replayed.
    EpochFlags scanned;     ///< Blocks captureIrrelevantSite recorded.
    EpochFlags skipSeen;
    std::vector<std::uint32_t> skipped;  ///< Callees the filter skipped.
    bool poisoned = false;  ///< Read a poisoned closure or digest.
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

void
FlowRefinement::buildBlockGraph()
{
    const std::size_t nb = module_.numBlocks();
    const std::size_t nf = module_.numFuncs();
    BlockGraph &g = graph_;

    g.eventOff.assign(nb + 1, 0);
    for (std::size_t b = 0; b < nb; ++b) {
        const BasicBlock &bb =
            module_.block(BlockId(static_cast<BlockId::RawType>(b)));
        for (std::size_t i = bb.insts.size(); i-- > 0;) {
            const InstId iid = bb.insts[i];
            const Instruction &inst = module_.inst(iid);
            const bool hinted = !hints_.at(iid).empty();
            const std::uint32_t callee =
                inst.op == Opcode::Call && inst.callee.valid()
                    ? inst.callee.raw()
                    : BlockGraph::kNoCallee;
            if (hinted || callee != BlockGraph::kNoCallee)
                g.events.push_back({iid.raw(), static_cast<std::uint32_t>(i),
                                    callee, hinted});
        }
        g.eventOff[b + 1] = static_cast<std::uint32_t>(g.events.size());
    }

    // Predecessors as the per-function Cfg sees them: branch targets
    // of each function's own (non-empty) blocks, as (target, pred).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    g.retOff.assign(nf + 1, 0);
    for (std::size_t f = 0; f < nf; ++f) {
        const Function &fn =
            module_.func(FuncId(static_cast<FuncId::RawType>(f)));
        for (const BlockId bid : fn.blocks) {
            const BasicBlock &bb = module_.block(bid);
            if (bb.insts.empty())
                continue;
            const Instruction &term = module_.inst(bb.insts.back());
            if (term.op == Opcode::Br) {
                edges.emplace_back(term.thenBlock.raw(), bid.raw());
                if (term.elseBlock != term.thenBlock)
                    edges.emplace_back(term.elseBlock.raw(), bid.raw());
            } else if (term.op == Opcode::Jmp) {
                edges.emplace_back(term.thenBlock.raw(), bid.raw());
            } else if (term.op == Opcode::Ret) {
                g.rets.push_back(bid.raw());
            }
        }
        g.retOff[f + 1] = static_cast<std::uint32_t>(g.rets.size());
    }
    buildCsr(edges, nb, g.predOff, g.preds);
}

void
FlowRefinement::buildFlatHints(WalkStats &stats, const std::uint32_t *owners,
                               std::size_t owners_count)
{
    // Single sequential pass in instruction order: one walker computes
    // (or borrows from the shared store) the alias-root closure of
    // every hint value and flattens it into the pooled arrays. The
    // pass is deterministic regardless of MANTA_JOBS, and the fresh
    // closures it publishes seed the store for the walk waves.
    TypeTable &tt = module_.types();
    Worker w(ddg_, &env_, tt, budget_);
    w.walker.attachSharedSummaries(&summaries_);
    const bool capture = owners != nullptr;
    if (capture)
        w.walker.enableTouchCapture(owners, owners_count);
    FlatHints &fh = flat_;
    fh = FlatHints{};
    fh.instSpan.assign(module_.numInsts(), {0, 0});
    fh.rootOff.assign(1, 0);
    if (capture)
        fh.touchOff.assign(1, 0);
    // Hint values repeat across sites; flatten each closure once.
    std::unordered_map<std::uint32_t, std::uint32_t> closure_of;
    // (root, function holding a hint with that root).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> root_funcs;
    for (std::size_t i = 0; i < fh.instSpan.size(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const std::vector<TypeHint> &hints = hints_.at(iid);
        if (hints.empty())
            continue;
        const std::uint32_t func =
            module_.block(module_.inst(iid).parent).func.raw();
        fh.instSpan[i] = {static_cast<std::uint32_t>(fh.spans.size()),
                          static_cast<std::uint32_t>(hints.size())};
        for (const TypeHint &hint : hints) {
            const auto [it, fresh] = closure_of.try_emplace(
                hint.value.raw(),
                static_cast<std::uint32_t>(fh.rootOff.size() - 1));
            if (fresh) {
                if (capture)
                    w.walker.beginCandidate();
                for (const ValueId r : w.walker.rootsOf(hint.value))
                    fh.rootPool.push_back(r.raw());
                fh.rootOff.push_back(
                    static_cast<std::uint32_t>(fh.rootPool.size()));
                if (capture) {
                    const std::vector<std::uint32_t> &touched =
                        w.walker.candidateTouched();
                    fh.touchPool.insert(fh.touchPool.end(), touched.begin(),
                                        touched.end());
                    fh.touchOff.push_back(
                        static_cast<std::uint32_t>(fh.touchPool.size()));
                    fh.poisoned.push_back(
                        w.walker.candidatePoisoned() ? 1 : 0);
                }
            }
            const std::uint32_t c = it->second;
            fh.spans.push_back({hint.type, c});
            for (std::uint32_t j = fh.rootOff[c]; j < fh.rootOff[c + 1]; ++j)
                root_funcs.emplace_back(fh.rootPool[j], func);
        }
    }
    stats.merge(w.walker.stats());
    FnSummaryStore::Delta delta;
    w.walker.harvestSummaries(delta, schedule_);
    summaries_.publish(std::move(delta));

    // Inverse map for the relevance filter.
    buildCsr(root_funcs, module_.numValues(), fh.funcOff, fh.funcs);
    flatReady_ = true;
}

void
FlowRefinement::buildClosureDigests(const std::uint64_t *substrate,
                                    std::size_t count)
{
    // D(s) = H(sorted substrate hashes of s's members and of every
    // function their hints' root queries touched; sorted D of s's
    // callee SCCs). Waves run leaves first, so callee digests are
    // final when a caller folds them in. Hashing values, not raw ids,
    // keeps D comparable across runs that renumber functions.
    const SccGraph &sccs = schedule_.sccs();
    std::vector<std::uint64_t> scc_digest(sccs.numSccs(), 0);
    EpochFlags closure_seen;
    EpochFlags func_seen;
    std::vector<std::uint64_t> items;
    std::vector<std::uint64_t> callees;
    for (std::size_t level = 0; level < sccs.numWaves(); ++level) {
        for (const std::uint32_t s : sccs.wave(level)) {
            closure_seen.newEpoch();
            func_seen.newEpoch();
            items.clear();
            callees.clear();
            bool poisoned = false;
            auto add = [&](std::uint32_t f) {
                if (func_seen.mark(f))
                    items.push_back(f < count ? substrate[f] : 0);
            };
            for (const FuncId member : sccs.members(s)) {
                add(member.raw());
                for (const BlockId b : module_.func(member).blocks) {
                    for (const InstId i : module_.block(b).insts) {
                        const auto [first, n] = flat_.instSpan[i.raw()];
                        for (std::uint32_t h = first; h < first + n; ++h) {
                            const std::uint32_t c = flat_.spans[h].closure;
                            if (!closure_seen.mark(c))
                                continue;
                            poisoned |= flat_.poisoned[c] != 0;
                            for (std::uint32_t t = flat_.touchOff[c];
                                    t < flat_.touchOff[c + 1]; ++t)
                                add(flat_.touchPool[t]);
                        }
                    }
                }
            }
            for (const std::uint32_t callee : sccs.calleeSccs(s)) {
                poisoned |= scc_digest[callee] == 0;
                callees.push_back(scc_digest[callee]);
            }
            if (poisoned)
                continue;
            std::sort(items.begin(), items.end());
            std::sort(callees.begin(), callees.end());
            Fnv64 h;
            h.u32(static_cast<std::uint32_t>(items.size()));
            for (const std::uint64_t x : items)
                h.u64(x);
            h.u32(static_cast<std::uint32_t>(callees.size()));
            for (const std::uint64_t x : callees)
                h.u64(x);
            scc_digest[s] = h.value() != 0 ? h.value() : 1;
        }
    }
    const std::size_t nf = module_.numFuncs();
    flat_.digest.resize(nf);
    for (std::size_t f = 0; f < nf; ++f)
        flat_.digest[f] = scc_digest[sccs.sccOf(
            FuncId(static_cast<FuncId::RawType>(f)))];
}

void
FlowRefinement::markRelevant(Worker &w) const
{
    // Seeds: the call-graph SCCs of functions holding a hint whose
    // roots meet R; then every SCC that reaches one through direct
    // calls. A callee outside this set has no matching hint anywhere
    // in its call closure, so its summary is empty and the evaluation
    // skips it.
    const SccGraph &sccs = schedule_.sccs();
    w.relevant.newEpoch();
    w.queue.clear();
    for (const std::uint32_t r : w.rootList) {
        for (std::uint32_t i = flat_.funcOff[r]; i < flat_.funcOff[r + 1];
                ++i) {
            const std::uint32_t scc = sccs.sccOf(FuncId(flat_.funcs[i]));
            if (w.relevant.mark(scc))
                w.queue.push_back(scc);
        }
    }
    for (std::size_t q = 0; q < w.queue.size(); ++q) {
        for (const std::uint32_t caller : sccs.callerSccs(w.queue[q])) {
            if (w.relevant.mark(caller))
                w.queue.push_back(caller);
        }
    }
    w.cfgStats.steps += w.queue.size();
}

bool
FlowRefinement::isRelevant(Worker &w, std::uint32_t func) const
{
    if (!flatReady_ ||
            w.relevant.marked(schedule_.sccs().sccOf(FuncId(func))))
        return true;
    // The skip reads all of func's call closure, which D(scc(func))
    // stands for as one dependency.
    if (w.walker.captureEnabled() && w.skipSeen.mark(func)) {
        w.skipped.push_back(func);
        if (flat_.digest[func] == 0)
            w.poisoned = true;
    }
    return false;
}

void
FlowRefinement::replayClosure(Worker &w, std::uint32_t closure) const
{
    // What the hint's root query read, once per candidate.
    if (!w.replayed.mark(closure))
        return;
    if (flat_.poisoned[closure] != 0)
        w.poisoned = true;
    for (std::uint32_t t = flat_.touchOff[closure];
            t < flat_.touchOff[closure + 1]; ++t)
        w.walker.noteFunc(flat_.touchPool[t]);
}

void
FlowRefinement::captureIrrelevantSite(Worker &w, InstId site) const
{
    // No hint in the function meets R, so the evaluation would scan
    // every block backward-reachable from the site without stopping:
    // record those blocks' hint root queries and skipped callees, not
    // the digest of the whole function, whose later callees and hints
    // the answer never reads.
    const BlockId parent = module_.inst(site).parent;
    w.walker.noteFunc(module_.block(parent).func.raw());
    auto scan = [&](std::uint32_t b, std::uint32_t limit) {
        for (std::uint32_t e = graph_.eventOff[b]; e < graph_.eventOff[b + 1];
                ++e) {
            const BlockGraph::Event &ev = graph_.events[e];
            if (ev.pos > limit)
                continue;
            if (ev.hinted) {
                const auto [first, count] = flat_.instSpan[ev.inst];
                for (std::uint32_t h = 0; h < count; ++h)
                    replayClosure(w, flat_.spans[first + h].closure);
            }
            // Callees of a filtered-out function are filtered out too;
            // the call records the skip.
            if (ev.callee != BlockGraph::kNoCallee)
                (void)isRelevant(w, ev.callee);
        }
        for (std::uint32_t i = graph_.predOff[b]; i < graph_.predOff[b + 1];
                ++i) {
            if (w.scanned.mark(graph_.preds[i]))
                w.queue.push_back(graph_.preds[i]);
        }
    };
    w.queue.clear();
    scan(parent.raw(),
         static_cast<std::uint32_t>(instIndex_.positionInBlock(site)));
    while (!w.queue.empty()) {
        const std::uint32_t b = w.queue.back();
        w.queue.pop_back();
        scan(b, 0xffffffffu);
    }
}

bool
FlowRefinement::collectMatching(Worker &w, std::uint32_t inst,
                                std::vector<TypeRef> &types) const
{
    bool hit = false;
    if (flatReady_) {
        // The exact root sets rootsOf() would answer, minus the probe.
        const auto [first, count] = flat_.instSpan[inst];
        for (std::uint32_t h = 0; h < count; ++h) {
            const FlatHints::Span &span = flat_.spans[first + h];
            const std::uint32_t c = span.closure;
            if (w.walker.captureEnabled())
                replayClosure(w, c);
            for (std::uint32_t j = flat_.rootOff[c]; j < flat_.rootOff[c + 1];
                    ++j) {
                if (w.roots.marked(flat_.rootPool[j])) {
                    types.push_back(span.type);
                    hit = true;
                    break;
                }
            }
        }
        return hit;
    }
    // Through the walker, so touch capture records what each hint's
    // root query read.
    for (const TypeHint &hint :
            hints_.at(InstId(static_cast<InstId::RawType>(inst)))) {
        for (const ValueId r : w.walker.rootsOf(hint.value)) {
            if (w.roots.marked(r.raw())) {
                types.push_back(hint.type);
                hit = true;
                break;
            }
        }
    }
    return hit;
}

void
FlowRefinement::openNode(Worker &w, std::uint32_t node, InstId site) const
{
    const auto nb = static_cast<std::uint32_t>(module_.numBlocks());
    const auto nf = static_cast<std::uint32_t>(module_.numFuncs());
    NodeState &ns = w.state[node];
    ns.stamp = w.epoch;
    ns.open = true;

    const std::size_t depth = w.frames.size();
    if (w.accs.size() <= depth)
        w.accs.emplace_back();
    std::vector<TypeRef> &acc = w.accs[depth];
    acc.clear();
    const auto begin = static_cast<std::uint32_t>(w.succs.size());
    std::uint32_t calls = depth == 0 ? 0 : w.frames.back().calls;
    ++w.cfgStats.steps;

    if (node >= nb && node < nb + nf) {
        // Sum(g): the union of Out over g's `ret` blocks.
        const std::uint32_t g = node - nb;
        w.walker.noteFunc(g);
        ++calls;
        for (std::uint32_t i = graph_.retOff[g]; i < graph_.retOff[g + 1];
                ++i)
            w.succs.push_back(graph_.rets[i]);
    } else {
        // Out(b), or the site's scan of its own block from its position.
        std::uint32_t block = node;
        std::uint32_t limit = 0xffffffffu;
        if (node == nb + nf) {
            block = module_.inst(site).parent.raw();
            limit = static_cast<std::uint32_t>(
                instIndex_.positionInBlock(site));
        }
        w.walker.noteFunc(
            module_.block(BlockId(static_cast<BlockId::RawType>(block)))
                .func.raw());
        bool stop = false;
        for (std::uint32_t e = graph_.eventOff[block];
                e < graph_.eventOff[block + 1]; ++e) {
            const BlockGraph::Event &ev = graph_.events[e];
            if (ev.pos > limit)
                continue;
            ++w.cfgStats.steps;
            // The first alias annotation met strong-updates (stops)
            // the path - before a call on the same instruction is
            // entered.
            if (ev.hinted && collectMatching(w, ev.inst, acc)) {
                stop = true;
                break;
            }
            // The callee body executes before control returns here.
            if (ev.callee != BlockGraph::kNoCallee &&
                    isRelevant(w, ev.callee))
                w.succs.push_back(nb + ev.callee);
        }
        if (stop) {
            std::sort(acc.begin(), acc.end());
            acc.erase(std::unique(acc.begin(), acc.end()), acc.end());
        } else {
            for (std::uint32_t i = graph_.predOff[block];
                    i < graph_.predOff[block + 1]; ++i)
                w.succs.push_back(graph_.preds[i]);
        }
    }
    if (calls > w.cfgStats.peakCtxDepth)
        w.cfgStats.peakCtxDepth = calls;
    w.frames.push_back(Frame{node, begin, begin,
                             static_cast<std::uint32_t>(w.succs.size()),
                             calls});
}

void
FlowRefinement::closeNode(Worker &w) const
{
    const Frame f = w.frames.back();
    const std::vector<TypeRef> &acc = w.accs[w.frames.size() - 1];
    NodeState &ns = w.state[f.node];
    ns.open = false;
    ns.begin = static_cast<std::uint32_t>(w.pool.size());
    ns.count = static_cast<std::uint32_t>(acc.size());
    w.pool.insert(w.pool.end(), acc.begin(), acc.end());
    w.frames.pop_back();
    w.succs.resize(f.begin);
    if (!w.frames.empty())
        unionInto(w.accs[w.frames.size() - 1], w.pool.data() + ns.begin,
                  ns.count, w.tmp);
}

void
FlowRefinement::evalSite(Worker &w, InstId site,
                         std::vector<TypeRef> &types) const
{
    ++w.cfgStats.queries;
    types.clear();
    // A function outside the relevant set has no matching hint in its
    // call closure: nothing can be collected.
    if (flatReady_ &&
            !w.relevant.marked(schedule_.sccs().sccOf(
                module_.block(module_.inst(site).parent).func))) {
        if (w.walker.captureEnabled())
            captureIrrelevantSite(w, site);
        return;
    }

    const auto site_node = static_cast<std::uint32_t>(
        module_.numBlocks() + module_.numFuncs());
    w.state[site_node].stamp = 0;  // Sites share tables, not the site.
    openNode(w, site_node, site);
    while (!w.frames.empty()) {
        Frame &f = w.frames.back();
        if (f.next == f.end) {
            closeNode(w);
            continue;
        }
        const std::uint32_t next = w.succs[f.next++];
        const NodeState &cs = w.state[next];
        // An open successor closes a cycle, which only input that
        // skipped makeAcyclic can have; that back edge adds nothing.
        if (cs.stamp != w.epoch)
            openNode(w, next, InstId());
        else if (!cs.open)
            unionInto(w.accs[w.frames.size() - 1], w.pool.data() + cs.begin,
                      cs.count, w.tmp);
    }
    const NodeState &ss = w.state[site_node];
    types.assign(w.pool.begin() + ss.begin,
                 w.pool.begin() + ss.begin + ss.count);
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
    w.rootList.clear();
    for (const ValueId r : w.walker.rootsOf(v)) {
        w.roots.ensure(r.raw() + 1);
        w.roots.mark(r.raw());
        w.rootList.push_back(r.raw());
    }
    if (flatReady_)
        markRelevant(w);

    // One set of summary tables serves all of the candidate's sites.
    w.beginTables(module_.numBlocks() + module_.numFuncs() + 1);
    out.siteTypes.resize(out.sites.size());
    for (std::size_t j = 0; j < out.sites.size(); ++j)
        evalSite(w, out.sites[j], out.siteTypes[j]);
}

FlowRefineResult
FlowRefinement::run(const std::vector<ValueId> &candidates)
{
    FlowRefineResult result;
    TypeTable &tt = module_.types();
    const std::size_t n = candidates.size();
    std::vector<CandidateOut> collected(n);

    const bool use_memo = memo_ != nullptr;
    const std::uint32_t *owners = nullptr;
    std::size_t owners_count = 0;
    if (use_memo)
        owners = memo_->valueOwners(&owners_count);

    // Phase 0: site enumeration (cheap, module-derived), the frozen
    // structures the walk reads, and the memo consult. Hits skip the
    // walk phase; their cached per-site bounds line up positionally
    // with the regenerated site list.
    for (std::size_t i = 0; i < n; ++i)
        candidateSites(candidates[i], collected[i]);
    std::vector<FlowCached> cached(use_memo ? n : 0);
    std::vector<char> hit(n, 0);
    std::vector<std::size_t> misses;
    misses.reserve(n);
    if (n > 0) {
        buildBlockGraph();
        // The flattened hint index (and the relevance filter built on
        // it) serves modules large enough to amortize the whole-module
        // flattening pass (kFlatIndexMinInsts; below it the answers
        // are identical, just unfiltered). A memo run's records depend
        // on the closure digests, so those precede the first lookup.
        if (flatIndexEligible(module_)) {
            buildFlatHints(result.walk, owners, owners_count);
            if (use_memo) {
                std::size_t count = 0;
                const std::uint64_t *substrate =
                    memo_->substrateHashes(&count);
                buildClosureDigests(substrate, count);
                memo_->setClosureDigests(flat_.digest);
            }
        }
    }
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

    std::vector<std::vector<std::uint32_t>> touched(use_memo ? m : 0);
    std::vector<std::vector<std::uint32_t>> skipped(use_memo ? m : 0);
    std::vector<char> poisoned(m, 0);

    // Phase 1: traversal, reading only frozen state.
    auto make = [&]() {
        auto w = std::make_unique<Worker>(ddg_, &env_, tt, budget_);
        w->walker.attachSharedSummaries(&summaries_);
        if (use_memo)
            w->walker.enableTouchCapture(owners, owners_count);
        return w;
    };
    auto walk = [&](Worker &w, std::size_t k) {
        if (use_memo)
            w.beginCapture();
        processCandidate(w, candidates[misses[k]], collected[misses[k]]);
        if (use_memo) {
            touched[k] = w.walker.candidateTouched();
            skipped[k] = w.skipped;
            poisoned[k] =
                w.walker.candidatePoisoned() || w.poisoned ? 1 : 0;
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
            memo_->storeFlow(v, rec, touched[k], skipped[k]);
    }
    return result;
}

} // namespace manta
