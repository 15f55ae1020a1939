/**
 * @file
 * The taint propagation engine (see taint/taint.h for the contract).
 *
 * The engine evaluates a monotone equation system over the
 * capped-union fact semilattice, whose least fixpoint is unique:
 *
 *   facts(v) ⊇ seeds(v)
 *   facts(v) ⊇ outflow(u)    for every allowed DDG edge u -> v
 *
 * where outflow(u) is facts(u), emptied by the numeric barrier except
 * for facts introduced at u itself. The schedule only changes HOW the
 * fixpoint is reached: bottom-up SCC waves with per-function
 * paramToRet summaries instantiated as call-site shortcut edges
 * (pure acceleration — every shortcut flow is a consequence of the
 * base system), then a sequential cross-SCC drain. The plain one-
 * worklist evaluation lives in reference/taint_ref.h as the check.
 */
#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <sstream>
#include <unordered_map>

#include "analysis/scc.h"
#include "core/modular.h"
#include "support/task_pool.h"
#include "support/timer.h"
#include "taint/spec.h"
#include "taint/taint.h"

namespace manta {
namespace taint {

bool
joinFacts(FactSet &into, const FactSet &add, std::size_t max_facts)
{
    if (add.empty())
        return false;
    FactSet merged;
    merged.reserve(into.size() + add.size());
    std::set_union(into.begin(), into.end(), add.begin(), add.end(),
                   std::back_inserter(merged));
    if (merged.size() > max_facts)
        merged.resize(max_facts);
    if (merged == into)
        return false;
    into = std::move(merged);
    return true;
}

namespace {

/** Fixed pack width of the wave scheduler: a pure function of the
 *  module (never of MANTA_JOBS), like the refinement stages' packs. */
constexpr std::size_t kPackSize = 4;

class Engine
{
  public:
    Engine(MantaAnalyzer &analyzer, const InferenceResult *inference,
           const TaintOptions &options)
        : analyzer_(analyzer), module_(analyzer.module()),
          ddg_(analyzer.ddg()), objects_(analyzer.memObjects()),
          inference_(inference), options_(options)
    {
        if (inference_ == nullptr)
            options_.useTypes = false;
        if (options_.maxFactsPerValue == 0)
            options_.maxFactsPerValue = 1;
    }

    TaintResult
    run()
    {
        Timer timer;
        TaintResult result;
        prepare();
        runModular();
        finalize(result);
        result.stats.seconds = timer.seconds();
        return result;
    }

  private:
    using Boundary = std::vector<std::pair<std::uint32_t, FactSet>>;

    /** One pack's private output, published sequentially post-wave. */
    struct PackOut
    {
        TaintSummaryStore::Delta delta;
        Boundary boundary;
    };

    // ---- Shared setup ---------------------------------------------

    void
    prepare()
    {
        const std::size_t num_values = module_.numValues();
        facts_.assign(num_values, {});
        barrier_.assign(num_values, 0);
        if (options_.useTypes) {
            TypeTable &tt = inference_->types();
            for (std::size_t v = 0; v < num_values; ++v) {
                const BoundPair bp =
                    inference_->valueBounds(ValueId(
                        static_cast<std::uint32_t>(v)));
                barrier_[v] = tt.isNumeric(bp.upper) &&
                              (tt.isNumeric(bp.lower) ||
                               bp.lower == tt.bottom());
            }
        }
        edge_allowed_.assign(ddg_.numEdges(), 1);
        for (std::size_t e = 0; e < ddg_.numEdges(); ++e) {
            if (options_.sanitizers &&
                sanitizerEdge(module_, ddg_.edge(
                                  static_cast<std::uint32_t>(e)))) {
                edge_allowed_[e] = 0;
                ++stats_.sanitizedEdges;
            }
        }
        seeds_ = collectSources(module_, ddg_, objects_);
        stats_.sources = seeds_.size();
        seed_at_.assign(num_values, {});
        for (const SourceSeed &seed : seeds_) {
            joinFacts(facts_[seed.value.index()], {seed.fact},
                      options_.maxFactsPerValue);
            joinFacts(seed_at_[seed.value.index()], {seed.fact},
                      options_.maxFactsPerValue);
        }
    }

    /** What u pushes along its out-edges: everything, or (numeric
     *  barrier) only the facts introduced at u itself. */
    FactSet
    outflow(std::uint32_t u) const
    {
        if (!barrier_[u])
            return facts_[u];
        if (seed_at_[u].empty())
            return {};
        FactSet own;
        std::set_intersection(facts_[u].begin(), facts_[u].end(),
                              seed_at_[u].begin(), seed_at_[u].end(),
                              std::back_inserter(own));
        return own;
    }

    // ---- Modular bottom-up evaluation -----------------------------

    void
    buildOwnership(const ModularSchedule &schedule)
    {
        fn_values_.assign(module_.numFuncs(), {});
        for (std::size_t v = 0; v < module_.numValues(); ++v) {
            const std::uint32_t owner =
                schedule.ownerOf(static_cast<std::uint32_t>(v));
            if (owner != ModularSchedule::kNoOwner &&
                owner < fn_values_.size()) {
                fn_values_[owner].push_back(static_cast<std::uint32_t>(v));
            }
        }
        fn_calls_.assign(module_.numFuncs(), {});
        for (std::size_t i = 0; i < module_.numInsts(); ++i) {
            const InstId iid(static_cast<std::uint32_t>(i));
            const Instruction &inst = module_.inst(iid);
            if (inst.op != Opcode::Call || !inst.callee.valid() ||
                !inst.result.valid())
                continue;
            const FuncId owner = module_.block(inst.parent).func;
            if (owner.valid())
                fn_calls_[owner.index()].push_back(iid);
        }
    }

    void
    runModular()
    {
        const ModularSchedule &schedule = analyzer_.schedule();
        const SccGraph &sccs = schedule.sccs();
        buildOwnership(schedule);
        store_.reset(new TaintSummaryStore(module_.numFuncs()));

        std::set<std::uint32_t> pending;
        for (std::size_t level = 0; level < sccs.numWaves(); ++level) {
            const std::vector<std::uint32_t> &comps = sccs.wave(level);
            std::vector<std::vector<std::uint32_t>> packs;
            for (std::size_t at = 0; at < comps.size(); at += kPackSize) {
                const std::size_t end =
                    std::min(comps.size(), at + kPackSize);
                packs.emplace_back(comps.begin() + at, comps.begin() + end);
            }
            std::vector<PackOut> outs(packs.size());
            sharedPool().parallelFor(packs.size(), [&](std::size_t p) {
                for (std::uint32_t scc : packs[p]) {
                    computeSccMasks(sccs, scc, &outs[p].delta);
                    propagateScc(schedule, sccs, scc, &outs[p].delta,
                                 &outs[p].boundary);
                }
            });
            // Sequential publication in pack order (store frozen
            // above): summaries first, then the boundary deltas that
            // schedule cross-SCC re-propagation.
            for (PackOut &out : outs) {
                store_->publish(std::move(out.delta));
                applyBoundary(schedule, sccs, out.boundary, &pending);
            }
            ++stats_.waves;
        }
        // Sequential drain to the cross-SCC fixpoint, smallest SCC id
        // first. Join order cannot change the result (semilattice),
        // only how fast it is reached.
        while (!pending.empty()) {
            const std::uint32_t scc = *pending.begin();
            pending.erase(pending.begin());
            Boundary boundary;
            propagateScc(schedule, sccs, scc, nullptr, &boundary);
            applyBoundary(schedule, sccs, boundary, &pending);
            ++stats_.drainRounds;
        }
    }

    void
    applyBoundary(const ModularSchedule &schedule, const SccGraph &sccs,
                  const Boundary &boundary, std::set<std::uint32_t> *pending)
    {
        for (const auto &entry : boundary) {
            if (!joinFacts(facts_[entry.first], entry.second,
                           options_.maxFactsPerValue))
                continue;
            const std::uint32_t owner = schedule.ownerOf(entry.first);
            if (owner != ModularSchedule::kNoOwner)
                pending->insert(sccs.sccOf(FuncId(owner)));
        }
    }

    /**
     * paramToRet masks of one SCC's members: per-value bitmask
     * fixpoint over the SCC-owned values, following allowed edges with
     * the barrier applied, instantiating published callee masks (and
     * same-SCC tentative masks, iterated to convergence) at direct
     * call sites. Reads only the frozen store, so packs of one wave
     * can run concurrently.
     */
    void
    computeSccMasks(const SccGraph &sccs, std::uint32_t scc,
                    TaintSummaryStore::Delta *delta)
    {
        const std::vector<FuncId> &members = sccs.members(scc);
        std::unordered_map<std::uint32_t, std::uint64_t> mask;
        std::unordered_map<std::uint32_t, std::uint64_t> fn_ret;
        for (FuncId fn : members) {
            const Function &function = module_.func(fn);
            for (std::size_t i = 0;
                 i < function.params.size() && i < 64; ++i) {
                mask[function.params[i].raw()] |= 1ull << i;
            }
            fn_ret[fn.raw()] = 0;
        }
        const auto member_of = [&](std::uint32_t func_raw) {
            return fn_ret.count(func_raw) != 0;
        };
        const auto callee_mask = [&](FuncId callee) -> std::uint64_t {
            if (member_of(callee.raw()))
                return fn_ret[callee.raw()];
            const FnTaintSummary *summary = store_->find(callee.raw());
            return summary ? summary->paramToRet : 0;
        };
        bool changed = true;
        while (changed) {
            changed = false;
            for (FuncId fn : members) {
                for (std::uint32_t v : fn_values_[fn.index()]) {
                    const auto it = mask.find(v);
                    if (it == mask.end() || it->second == 0 || barrier_[v])
                        continue;
                    const std::uint64_t bits = it->second;
                    for (std::uint32_t e : ddg_.outEdges(ValueId(v))) {
                        if (!edge_allowed_[e])
                            continue;
                        const Ddg::Edge &edge = ddg_.edge(e);
                        const std::uint32_t owner =
                            module_.owningFunc(edge.to).valid()
                                ? module_.owningFunc(edge.to).raw()
                                : ModularSchedule::kNoOwner;
                        if (owner == ModularSchedule::kNoOwner ||
                            !member_of(owner))
                            continue;
                        std::uint64_t &slot = mask[edge.to.raw()];
                        if ((slot | bits) != slot) {
                            slot |= bits;
                            changed = true;
                        }
                    }
                }
                // Call-site instantiation: arg i's bits reach the call
                // result when the callee's mask says param i flows to
                // its return.
                for (InstId call : fn_calls_[fn.index()]) {
                    const Instruction &inst = module_.inst(call);
                    const std::uint64_t cm = callee_mask(inst.callee);
                    if (cm == 0)
                        continue;
                    std::uint64_t bits = 0;
                    for (std::size_t a = 0;
                         a < inst.numOperands() && a < 64; ++a) {
                        if (!(cm & (1ull << a)))
                            continue;
                        const auto it = mask.find(module_.operand(inst, a).raw());
                        if (it != mask.end() &&
                            !barrier_[module_.operand(inst, a).raw()])
                            bits |= it->second;
                    }
                    if (bits == 0)
                        continue;
                    std::uint64_t &slot = mask[inst.result.raw()];
                    if ((slot | bits) != slot) {
                        slot |= bits;
                        changed = true;
                    }
                }
                // Refresh the member's own ret mask (feeds same-SCC
                // recursion in the next sweep).
                std::uint64_t ret_bits = 0;
                for (BlockId bid : module_.func(fn).blocks) {
                    for (InstId iid : module_.block(bid).insts) {
                        const Instruction &inst = module_.inst(iid);
                        if (inst.op != Opcode::Ret ||
                            inst.numOperands() == 0)
                            continue;
                        const auto it =
                            mask.find(module_.operand(inst, 0).raw());
                        if (it != mask.end() &&
                            !barrier_[module_.operand(inst, 0).raw()])
                            ret_bits |= it->second;
                    }
                }
                if (ret_bits != fn_ret[fn.raw()]) {
                    fn_ret[fn.raw()] = ret_bits;
                    changed = true;
                }
            }
        }
        if (delta != nullptr) {
            for (FuncId fn : members) {
                FnTaintSummary summary;
                summary.paramToRet = fn_ret[fn.raw()];
                delta->entries.emplace_back(fn.raw(), std::move(summary));
            }
        }
    }

    /**
     * Local fact fixpoint over one SCC's values. Writes facts of
     * SCC-owned values (disjoint across the wave's packs) and appends
     * cross-SCC pushes to `boundary` (applied sequentially later), so
     * concurrent packs never race and results are MANTA_JOBS-free.
     */
    void
    propagateScc(const ModularSchedule &schedule, const SccGraph &sccs,
                 std::uint32_t scc, const TaintSummaryStore::Delta *delta,
                 Boundary *boundary)
    {
        const std::vector<FuncId> &members = sccs.members(scc);
        // Call-site shortcut edges from summary masks: arg -> result.
        std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
            shortcut;
        for (FuncId fn : members) {
            for (InstId call : fn_calls_[fn.index()]) {
                const Instruction &inst = module_.inst(call);
                std::uint64_t cm = 0;
                if (delta != nullptr) {
                    for (const auto &entry : delta->entries) {
                        if (entry.first == inst.callee.raw())
                            cm = entry.second.paramToRet;
                    }
                }
                if (cm == 0) {
                    const FnTaintSummary *summary =
                        store_->find(inst.callee.raw());
                    cm = summary ? summary->paramToRet : 0;
                }
                for (std::size_t a = 0;
                     a < inst.numOperands() && a < 64; ++a) {
                    if (cm & (1ull << a)) {
                        shortcut[module_.operand(inst, a).raw()].push_back(
                            inst.result.raw());
                    }
                }
            }
        }
        std::set<std::uint32_t> scc_funcs;
        for (FuncId fn : members)
            scc_funcs.insert(fn.raw());
        std::deque<std::uint32_t> worklist;
        std::set<std::uint32_t> queued;
        for (FuncId fn : members) {
            for (std::uint32_t v : fn_values_[fn.index()]) {
                if (!facts_[v].empty() && queued.insert(v).second)
                    worklist.push_back(v);
            }
        }
        while (!worklist.empty()) {
            const std::uint32_t u = worklist.front();
            worklist.pop_front();
            queued.erase(u);
            const FactSet out = outflow(u);
            if (out.empty())
                continue;
            const auto push_local = [&](std::uint32_t v) {
                if (joinFacts(facts_[v], out, options_.maxFactsPerValue) &&
                    queued.insert(v).second)
                    worklist.push_back(v);
            };
            for (std::uint32_t e : ddg_.outEdges(ValueId(u))) {
                if (!edge_allowed_[e])
                    continue;
                const Ddg::Edge &edge = ddg_.edge(e);
                const std::uint32_t owner = schedule.ownerOf(edge.to.raw());
                if (owner != ModularSchedule::kNoOwner &&
                    scc_funcs.count(owner)) {
                    push_local(edge.to.raw());
                } else {
                    boundary->emplace_back(edge.to.raw(), out);
                }
            }
            const auto sc = shortcut.find(u);
            if (sc != shortcut.end()) {
                for (std::uint32_t v : sc->second)
                    push_local(v);
            }
        }
    }

    // ---- Finalization ---------------------------------------------

    void
    finalize(TaintResult &result)
    {
        for (std::size_t v = 0; v < module_.numValues(); ++v) {
            if (facts_[v].empty())
                continue;
            ++stats_.factedValues;
            if (barrier_[v])
                ++stats_.barrierValues;
        }
        scanSinks(result);
        fillSummaries(result);
        result.stats = stats_;
        result.facts = std::move(facts_);
    }

    void
    scanSinks(TaintResult &result)
    {
        const std::vector<SinkSite> sinks = collectSinks(module_);
        stats_.sinkSites = sinks.size();
        for (const SinkSite &site : sinks) {
            for (const TaintFact &fact : facts_[site.value.index()]) {
                if (checkerFor(site.sink, fact.kind) == nullptr)
                    continue;
                TaintFlow flow;
                flow.sink = site.sink;
                flow.kind = fact.kind;
                flow.sourceInst = fact.source;
                flow.sinkInst = site.inst;
                flow.sinkValue = site.value;
                flow.argIndex = site.argIndex;
                flow.suppressed =
                    options_.useTypes && barrier_[site.value.index()];
                flow.steps = reconstructSteps(flow, fact);
                if (flow.suppressed)
                    ++stats_.suppressed;
                else
                    ++stats_.flows;
                result.flows.push_back(std::move(flow));
            }
        }
    }

    /**
     * One witness path, reconstructed by backward BFS over allowed
     * in-edges whose tail carries the fact and may push it onward.
     * Edge indices are visited ascending, so the witness (and the
     * SARIF flow steps) are deterministic.
     */
    std::vector<InstId>
    reconstructSteps(const TaintFlow &flow, const TaintFact &fact) const
    {
        std::vector<InstId> steps;
        steps.push_back(fact.source);
        std::uint32_t target = ModularSchedule::kNoOwner;
        for (const SourceSeed &seed : seeds_) {
            if (seed.fact == fact) {
                target = seed.value.raw();
                break;
            }
        }
        const std::uint32_t start = flow.sinkValue.raw();
        std::vector<std::uint32_t> sites;
        if (target != ModularSchedule::kNoOwner && start != target) {
            std::unordered_map<std::uint32_t, std::uint32_t> parent_edge;
            std::deque<std::uint32_t> queue;
            queue.push_back(start);
            parent_edge[start] = 0xffffffffu; // visited marker only
            bool found = false;
            while (!queue.empty() && !found) {
                const std::uint32_t v = queue.front();
                queue.pop_front();
                for (std::uint32_t e : ddg_.inEdges(ValueId(v))) {
                    if (!edge_allowed_[e])
                        continue;
                    const Ddg::Edge &edge = ddg_.edge(e);
                    const std::uint32_t u = edge.from.raw();
                    if (parent_edge.count(u))
                        continue;
                    if (std::find(facts_[u].begin(), facts_[u].end(),
                                  fact) == facts_[u].end())
                        continue;
                    if (barrier_[u] &&
                        (std::find(seed_at_[u].begin(), seed_at_[u].end(),
                                   fact) == seed_at_[u].end()))
                        continue;
                    parent_edge[u] = e;
                    if (u == target) {
                        found = true;
                        break;
                    }
                    queue.push_back(u);
                }
            }
            if (found) {
                std::uint32_t v = target;
                while (v != start) {
                    const std::uint32_t e = parent_edge[v];
                    // Walk forward: target's stored edge leads back
                    // toward the sink.
                    sites.push_back(ddg_.edge(e).site.raw());
                    v = ddg_.edge(e).to.raw();
                }
            }
        }
        for (std::uint32_t site : sites) {
            const InstId iid(site);
            if (iid.valid() && (steps.empty() || !(steps.back() == iid)))
                steps.push_back(iid);
        }
        if (steps.empty() || !(steps.back() == flow.sinkInst))
            steps.push_back(flow.sinkInst);
        // Deterministic middle elision for very long witnesses.
        constexpr std::size_t kMaxSteps = 8;
        if (steps.size() > kMaxSteps) {
            std::vector<InstId> trimmed(steps.begin(), steps.begin() + 4);
            trimmed.insert(trimmed.end(), steps.end() - 4, steps.end());
            steps = std::move(trimmed);
        }
        return steps;
    }

    void
    fillSummaries(TaintResult &result)
    {
        result.summaries.assign(module_.numFuncs(), {});
        for (std::size_t f = 0; f < module_.numFuncs(); ++f) {
            const FnTaintSummary *published =
                store_ ? store_->find(static_cast<std::uint32_t>(f))
                       : nullptr;
            if (published != nullptr)
                result.summaries[f].paramToRet = published->paramToRet;
            const Function &function =
                module_.func(FuncId(static_cast<std::uint32_t>(f)));
            for (BlockId bid : function.blocks) {
                for (InstId iid : module_.block(bid).insts) {
                    const Instruction &inst = module_.inst(iid);
                    if (inst.op == Opcode::Ret && inst.numOperands() != 0) {
                        joinFacts(result.summaries[f].retFacts,
                                  facts_[module_.operand(inst, 0).index()],
                                  options_.maxFactsPerValue);
                    }
                }
            }
        }
    }

    MantaAnalyzer &analyzer_;
    Module &module_;
    const Ddg &ddg_;
    const MemObjects &objects_;
    const InferenceResult *inference_;
    TaintOptions options_;
    TaintStats stats_;

    std::vector<FactSet> facts_;
    std::vector<FactSet> seed_at_; ///< Facts introduced at each value.
    std::vector<char> barrier_;
    std::vector<char> edge_allowed_;
    std::vector<SourceSeed> seeds_;
    std::vector<std::vector<std::uint32_t>> fn_values_;
    std::vector<std::vector<InstId>> fn_calls_;
    std::unique_ptr<TaintSummaryStore> store_;
};

} // namespace

TaintResult
runTaint(MantaAnalyzer &analyzer, const InferenceResult *inference,
         const TaintOptions &options)
{
    Engine engine(analyzer, inference, options);
    return engine.run();
}

std::string
TaintResult::canonicalText(const Module &module) const
{
    std::ostringstream out;
    out << "taint flows=" << stats.flows << " suppressed="
        << stats.suppressed << " sources=" << stats.sources
        << " facted=" << stats.factedValues << " barrier="
        << stats.barrierValues << " sanitized-edges="
        << stats.sanitizedEdges << "\n";
    for (const TaintFlow &flow : flows) {
        out << "flow " << flowChecker(flow) << " kind="
            << taintKindName(flow.kind) << " sink="
            << sinkKindName(flow.sink) << " arg=" << flow.argIndex
            << " src=inst" << flow.sourceInst.raw() << " dst=inst"
            << flow.sinkInst.raw() << " steps=" << flow.steps.size()
            << " suppressed=" << (flow.suppressed ? 1 : 0) << "\n";
    }
    out << summaryText(module);
    return out.str();
}

std::string
TaintResult::summaryText(const Module &module) const
{
    std::ostringstream out;
    for (std::size_t f = 0; f < summaries.size(); ++f) {
        const FnTaintSummary &summary = summaries[f];
        if (summary.paramToRet == 0 && summary.retFacts.empty())
            continue;
        out << "summary "
            << module.str(
                   module.func(FuncId(static_cast<std::uint32_t>(f))).name)
            << " params=0x" << std::hex << summary.paramToRet << std::dec
            << " ret=[";
        for (std::size_t i = 0; i < summary.retFacts.size(); ++i) {
            if (i != 0)
                out << ",";
            out << taintKindName(summary.retFacts[i].kind) << "@inst"
                << summary.retFacts[i].source.raw();
        }
        out << "]\n";
    }
    return out.str();
}

} // namespace taint
} // namespace manta
