#include "reference/refine_ref.h"

#include <unordered_set>

#include "subtype/solver.h"

namespace manta {

namespace {

/** Visited key: node plus context top (finite approximation). */
struct VisitKey
{
    std::uint32_t node;
    std::uint32_t top;

    friend bool
    operator<(const VisitKey &a, const VisitKey &b)
    {
        if (a.node != b.node)
            return a.node < b.node;
        return a.top < b.top;
    }
};

/** DDG frame: node plus a copy of its context stack. */
struct Frame
{
    ValueId node;
    std::vector<InstId> ctx;
};

/** CFG frame: instruction plus a copy of its context stack. */
struct CfgFrame
{
    InstId inst;
    std::vector<InstId> ctx;
};

VisitKey
keyOf(std::uint32_t node, const std::vector<InstId> &ctx)
{
    return VisitKey{node, ctx.empty() ? 0xffffffffu : ctx.back().raw()};
}

} // namespace

RefWalker::RefWalker(const Module &module, const Ddg &ddg,
                     const HintIndex &hints, const TypeEnv *env,
                     TypeTable &types, WalkBudget budget)
    : module_(module), ddg_(ddg), hints_(hints), env_(env), types_(types),
      budget_(budget), index_(module)
{}

std::vector<ValueId>
RefWalker::findRootsRef(ValueId v) const
{
    std::vector<ValueId> roots;
    std::set<VisitKey> visited;
    std::unordered_set<std::uint32_t> root_set;
    std::vector<Frame> work;
    work.push_back(Frame{v, {}});
    visited.insert(keyOf(v.raw(), {}));

    std::size_t steps = 0;
    while (!work.empty() && ++steps <= budget_.maxVisited) {
        Frame frame = std::move(work.back());
        work.pop_back();

        bool expanded = false;
        for (const auto idx : ddg_.inEdges(frame.node)) {
            const Ddg::Edge &edge = ddg_.edge(idx);
            if (edge.pruned || !isAliasEdge(edge.kind) ||
                    !arithEdgeFeasible(ddg_, env_, types_, edge)) {
                continue;
            }
            Frame next{edge.from, frame.ctx};
            if (edge.kind == DepKind::CallArg) {
                // formal -> actual: exiting the callee.
                if (!next.ctx.empty()) {
                    if (next.ctx.back() != edge.site)
                        continue; // CFL-invalid
                    next.ctx.pop_back();
                }
            } else if (edge.kind == DepKind::CallRet) {
                // call result -> return operand: entering the callee.
                if (next.ctx.size() >= budget_.maxStack)
                    continue;
                next.ctx.push_back(edge.site);
            }
            expanded = true;
            if (visited.insert(keyOf(next.node.raw(), next.ctx)).second)
                work.push_back(std::move(next));
        }
        if (!expanded && root_set.insert(frame.node.raw()).second)
            roots.push_back(frame.node);
    }
    if (roots.empty())
        roots.push_back(v); // Algorithm 1 lines 18-19
    return roots;
}

std::vector<TypeRef>
RefWalker::collectTypesRef(ValueId root) const
{
    std::vector<TypeRef> types;
    std::set<VisitKey> visited;
    std::vector<Frame> work;
    work.push_back(Frame{root, {}});
    visited.insert(keyOf(root.raw(), {}));

    std::size_t steps = 0;
    while (!work.empty() && ++steps <= budget_.maxVisited) {
        Frame frame = std::move(work.back());
        work.pop_back();

        for (const TypeHint &hint : hints_.of(frame.node))
            types.push_back(hint.type);

        for (const auto idx : ddg_.outEdges(frame.node)) {
            const Ddg::Edge &edge = ddg_.edge(idx);
            if (edge.pruned || !isAliasEdge(edge.kind) ||
                    !arithEdgeFeasible(ddg_, env_, types_, edge)) {
                continue;
            }
            Frame next{edge.to, frame.ctx};
            if (edge.kind == DepKind::CallArg) {
                // actual -> formal: entering the callee.
                if (next.ctx.size() >= budget_.maxStack)
                    continue;
                next.ctx.push_back(edge.site);
            } else if (edge.kind == DepKind::CallRet) {
                // return operand -> call result: exiting the callee.
                if (!next.ctx.empty()) {
                    if (next.ctx.back() != edge.site)
                        continue; // CFL-invalid
                    next.ctx.pop_back();
                }
            }
            if (visited.insert(keyOf(next.node.raw(), next.ctx)).second)
                work.push_back(std::move(next));
        }
    }
    return types;
}

std::vector<TypeRef>
RefWalker::reachableTypesRef(InstId site, const std::set<ValueId> &roots)
{
    std::vector<TypeRef> types;
    std::set<VisitKey> visited;
    std::vector<CfgFrame> work;
    work.push_back(CfgFrame{site, {}});
    visited.insert(keyOf(site.raw(), {}));

    auto enqueue = [&](InstId next, std::vector<InstId> ctx) {
        if (visited.insert(keyOf(next.raw(), ctx)).second)
            work.push_back(CfgFrame{next, std::move(ctx)});
    };

    // Algorithm 2 exactly: no step or depth budget. The visited key
    // (instruction, context top) bounds the walk on any input.
    while (!work.empty()) {
        CfgFrame item = std::move(work.back());
        work.pop_back();
        const Instruction &inst = module_.inst(item.inst);

        // Annotation check: the first alias annotation met along the
        // path is collected and strong-updates (stops) the path.
        bool stop = false;
        for (const TypeHint &hint : hints_.at(item.inst)) {
            auto it = hint_roots_.find(hint.value.raw());
            if (it == hint_roots_.end()) {
                it = hint_roots_.emplace(hint.value.raw(),
                                         findRootsRef(hint.value))
                         .first;
            }
            for (const ValueId r : it->second) {
                if (roots.count(r)) {
                    types.push_back(hint.type);
                    stop = true;
                    break;
                }
            }
        }
        if (stop)
            continue;

        // Descend into direct callees: the callee body executes before
        // control returns to this point.
        if (inst.op == Opcode::Call && inst.callee.valid()) {
            for (const BlockId bid : module_.func(inst.callee).blocks) {
                const BasicBlock &bb = module_.block(bid);
                if (bb.insts.empty() ||
                        module_.inst(bb.insts.back()).op != Opcode::Ret)
                    continue;
                std::vector<InstId> ctx = item.ctx;
                ctx.push_back(item.inst);
                enqueue(bb.insts.back(), std::move(ctx));
            }
        }

        const BasicBlock &bb = module_.block(inst.parent);
        const std::size_t pos = index_.positionInBlock(item.inst);
        if (pos > 0) {
            enqueue(bb.insts[pos - 1], item.ctx);
            continue;
        }
        auto cfg = cfgs_.find(bb.func.raw());
        if (cfg == cfgs_.end())
            cfg = cfgs_.emplace(bb.func.raw(), Cfg(module_, bb.func)).first;
        for (const BlockId pred : cfg->second.preds(inst.parent)) {
            const BasicBlock &pb = module_.block(pred);
            if (!pb.insts.empty())
                enqueue(pb.insts.back(), item.ctx);
        }

        // At the function entry: return to the call site we descended
        // from, never ascending past the starting frame (collecting
        // hints from arbitrary callers is the context stage's job).
        if (inst.parent == module_.func(bb.func).entry() &&
                !item.ctx.empty()) {
            std::vector<InstId> ctx = item.ctx;
            const InstId ret_site = ctx.back();
            ctx.pop_back();
            enqueue(ret_site, std::move(ctx));
        }
    }
    return types;
}

RefOverlays
referenceInfer(MantaAnalyzer &analyzer, const HybridConfig &config)
{
    Module &module = analyzer.module();
    TypeTable &tt = module.types();
    TypeEnv env(tt);
    RefOverlays out;

    std::vector<ValueId> over;
    for (std::size_t i = 0; i < module.numValues(); ++i) {
        const ValueId v(static_cast<ValueId::RawType>(i));
        const ValueKind kind = module.value(v).kind;
        if (kind == ValueKind::Argument || kind == ValueKind::InstResult)
            over.push_back(v);
    }
    if (config.flowInsensitive) {
        if (config.inferEngine == InferEngine::Subtype) {
            subtype::SubtypeInference(module, analyzer.pts(),
                                      analyzer.hints())
                .run(env);
        } else {
            FlowInsensitiveInference(module, analyzer.pts(),
                                     analyzer.hints())
                .run(env);
        }
        std::vector<ValueId> fi_over;
        for (const ValueId v : over) {
            if (env.classifyOf(TypeVar::of(v)) == TypeClass::Over)
                fi_over.push_back(v);
        }
        over = std::move(fi_over);
    }

    RefWalker walker(module, analyzer.ddg(), analyzer.hints(), &env, tt,
                     config.budget);
    const InstIndex index(module);

    // Algorithm 1; returns the candidates left over-approximated.
    auto cs = [&](const std::vector<ValueId> &candidates) {
        std::vector<ValueId> still_over;
        for (const ValueId v : candidates) {
            std::vector<TypeRef> uniq;
            std::unordered_set<std::uint32_t> seen;
            for (const ValueId root : walker.findRootsRef(v)) {
                for (const TypeRef t : walker.collectTypesRef(root)) {
                    if (seen.insert(t.raw()).second)
                        uniq.push_back(t);
                }
            }
            if (uniq.empty()) {
                still_over.push_back(v);
                continue;
            }
            const BoundPair bp = BoundPair::refineWithin(
                tt, BoundPair(tt.joinAll(uniq), tt.meetAll(uniq)),
                env.boundsOf(TypeVar::of(v)));
            out.values[v] = bp;
            if (bp.classify(tt) != TypeClass::Precise)
                still_over.push_back(v);
        }
        return still_over;
    };

    // Algorithm 2; returns the candidates left imprecise.
    auto fs = [&](const std::vector<ValueId> &candidates) {
        std::vector<ValueId> still_over;
        for (const ValueId v : candidates) {
            const std::vector<ValueId> root_list = walker.findRootsRef(v);
            const std::set<ValueId> roots(root_list.begin(),
                                          root_list.end());
            InstId def_site;
            const Value &value = module.value(v);
            if (value.kind == ValueKind::InstResult) {
                def_site = value.inst;
            } else {
                const Function &fn = module.func(value.argFunc);
                if (fn.entry().valid() &&
                        !module.block(fn.entry()).insts.empty())
                    def_site = module.block(fn.entry()).insts.front();
            }
            std::vector<InstId> sites;
            if (def_site.valid())
                sites.push_back(def_site);
            for (const InstId user : index.users(v))
                sites.push_back(user);

            BoundPair def_bp = BoundPair::anyType(tt);
            for (const InstId s : sites) {
                const std::vector<TypeRef> types =
                    walker.reachableTypesRef(s, roots);
                const BoundPair bp =
                    types.empty()
                        ? BoundPair::anyType(tt)
                        : BoundPair(tt.joinAll(types), tt.meetAll(types));
                out.sites.emplace(SiteVar{v, s}, bp);
                if (s == def_site && !types.empty())
                    def_bp = bp;
            }
            BoundPair final_bp = env.boundsOf(TypeVar::of(v));
            if (def_bp.classify(tt) != TypeClass::Unknown) {
                final_bp = BoundPair::refineWithin(tt, def_bp, final_bp);
                out.values[v] = final_bp;
            }
            if (final_bp.classify(tt) != TypeClass::Precise)
                still_over.push_back(v);
        }
        return still_over;
    };

    if (config.fsBeforeCs && config.flowInsensitive &&
            config.flowSensitive && config.contextSensitive) {
        cs(fs(over));
    } else {
        if (config.contextSensitive && config.flowInsensitive)
            over = cs(over);
        if (config.flowSensitive)
            fs(over);
    }
    return out;
}

std::string
diffOverlays(const InferenceResult &result, const RefOverlays &ref)
{
    const TypeTable &tt = result.types();
    auto show = [&](const BoundPair &bp) {
        return "[" + tt.toString(bp.lower) + ", " + tt.toString(bp.upper) +
               "]";
    };
    if (result.overlay().size() != ref.values.size()) {
        return "value overlay sizes differ (production " +
               std::to_string(result.overlay().size()) + ", reference " +
               std::to_string(ref.values.size()) + ")";
    }
    for (const auto &[v, rbp] : ref.values) {
        const auto it = result.overlay().find(v);
        if (it == result.overlay().end())
            return "production missed the refinement of value " +
                   std::to_string(v.raw());
        if (it->second.upper != rbp.upper || it->second.lower != rbp.lower)
            return "value " + std::to_string(v.raw()) + ": production " +
                   show(it->second) + " vs reference " + show(rbp);
    }
    if (result.siteOverlay().size() != ref.sites.size()) {
        return "site overlay sizes differ (production " +
               std::to_string(result.siteOverlay().size()) +
               ", reference " + std::to_string(ref.sites.size()) + ")";
    }
    for (const auto &[sv, rbp] : ref.sites) {
        const auto it = result.siteOverlay().find(sv);
        const std::string where = "value " + std::to_string(sv.value.raw()) +
                                  " at inst " +
                                  std::to_string(sv.site.raw());
        if (it == result.siteOverlay().end())
            return "production missed the site refinement of " + where;
        if (it->second.upper != rbp.upper || it->second.lower != rbp.lower)
            return where + ": production " + show(it->second) +
                   " vs reference " + show(rbp);
    }
    return "";
}

} // namespace manta
