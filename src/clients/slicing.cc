#include "clients/slicing.h"

#include <set>

#include "analysis/cfg.h"

namespace manta {

void
DataSlicer::addExtraEdge(ValueId from, ValueId to, DepKind kind, InstId site)
{
    extra_[from.raw()].push_back(ExtraEdge{to, kind, site});
}

namespace {

struct SliceFrame
{
    ValueId node;
    std::vector<InstId> ctx;
};

struct SliceKey
{
    std::uint32_t node;
    std::uint32_t top;
    friend bool
    operator<(const SliceKey &a, const SliceKey &b)
    {
        if (a.node != b.node)
            return a.node < b.node;
        return a.top < b.top;
    }
};

SliceKey
keyOf(const SliceFrame &f)
{
    return SliceKey{f.node.raw(),
                    f.ctx.empty() ? 0xffffffffu : f.ctx.back().raw()};
}

constexpr std::size_t maxCtxDepth = 32;

} // namespace

std::vector<ValueId>
DataSlicer::forwardSlice(ValueId source, const Options &options) const
{
    std::vector<ValueId> slice;
    std::set<SliceKey> visited;
    std::unordered_set<std::uint32_t> emitted;
    std::vector<SliceFrame> work;
    work.push_back(SliceFrame{source, {}});
    visited.insert(keyOf(work.back()));

    std::size_t steps = 0;
    while (!work.empty()) {
        if (++steps > sliceBudget)
            break;
        SliceFrame frame = std::move(work.back());
        work.pop_back();

        if (emitted.insert(frame.node.raw()).second)
            slice.push_back(frame.node);

        if (options.barrier && options.barrier(frame.node))
            continue;

        auto step = [&](ValueId to, DepKind kind, InstId site) {
            SliceFrame next;
            next.node = to;
            next.ctx = frame.ctx;
            if (kind == DepKind::CallArg) {
                if (next.ctx.size() >= maxCtxDepth)
                    return;
                next.ctx.push_back(site);
            } else if (kind == DepKind::CallRet) {
                if (!next.ctx.empty()) {
                    if (next.ctx.back() != site)
                        return; // CFL-invalid
                    next.ctx.pop_back();
                }
            }
            if (visited.insert(keyOf(next)).second)
                work.push_back(std::move(next));
        };

        for (const auto idx : ddg_.outEdges(frame.node)) {
            const Ddg::Edge &edge = ddg_.edge(idx);
            if (options.respectPruning && edge.pruned)
                continue;
            step(edge.to, edge.kind, edge.site);
        }
        const auto it = extra_.find(frame.node.raw());
        if (it != extra_.end()) {
            for (const ExtraEdge &e : it->second)
                step(e.to, e.kind, e.site);
        }
    }
    return slice;
}

OrderOracle::OrderOracle(const Module &module, const InstIndex &index)
    : module_(module), index_(index)
{}

bool
OrderOracle::mayPrecede(InstId earlier, InstId later) const
{
    const BlockId eb = module_.inst(earlier).parent;
    const BlockId lb = module_.inst(later).parent;
    const FuncId ef = module_.block(eb).func;
    const FuncId lf = module_.block(lb).func;
    if (ef != lf)
        return true; // conservative across functions

    if (eb == lb)
        return index_.positionInBlock(earlier) <
               index_.positionInBlock(later);

    // Block-DAG reachability within the (acyclic) function.
    if (!cached_funcs_.count(ef.raw())) {
        const Cfg cfg(module_, ef);
        auto &reach = reach_cache_[ef.raw()];
        // For each block, BFS its successors.
        for (const BlockId start : module_.func(ef).blocks) {
            std::vector<BlockId> stack{start};
            std::unordered_set<std::uint32_t> seen;
            while (!stack.empty()) {
                const BlockId at = stack.back();
                stack.pop_back();
                for (const BlockId next : cfg.succs(at)) {
                    if (seen.insert(next.raw()).second) {
                        reach.insert((std::uint64_t(start.raw()) << 32) |
                                     next.raw());
                        stack.push_back(next);
                    }
                }
            }
        }
        cached_funcs_.insert(ef.raw());
    }
    const auto &reach = reach_cache_.at(ef.raw());
    return reach.count((std::uint64_t(eb.raw()) << 32) | lb.raw()) > 0;
}

} // namespace manta
