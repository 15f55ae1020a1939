#include "serve/memo.h"

#include <algorithm>

#include "types/typeio.h"

namespace manta {
namespace serve {

bool
IncrementalMemo::beginRun(Module &module, const Ddg &ddg,
                          const HintIndex &hints, const PointsTo &pts,
                          const TypeEnv &env, const WalkBudget &budget)
{
    // Records are only comparable across runs under one walk budget:
    // truncated walks are deterministic given the budget, not across
    // budgets. A budget change drops everything rather than serving
    // stale answers.
    if (have_budget_ &&
        (budget.maxVisited != budget_.maxVisited ||
         budget.maxStack != budget_.maxStack))
        clear();
    budget_ = budget;
    have_budget_ = true;

    module_ = &module;
    to_run_cache_.clear();
    to_holder_cache_.clear();
    if (pending_keys_ && pending_module_ == &module)
        keys_ = std::move(pending_keys_);
    else
        keys_ = std::make_unique<ModuleKeys>(module);
    pending_keys_.reset();
    pending_module_ = nullptr;
    substrate_ = keys_->substrateHashes(ddg, hints, pts, env);
    indexByKey(substrate_, substrate_by_key_);
    // No closure digests until the FS stage hands this run's over.
    closure_.clear();
    closure_by_key_.clear();
    return true;
}

void
IncrementalMemo::indexByKey(
    const std::vector<std::uint64_t> &by_func,
    std::unordered_map<std::uint64_t, std::uint64_t> &by_key) const
{
    by_key.clear();
    by_key.reserve(by_func.size());
    for (std::size_t f = 0; f < by_func.size(); ++f) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        // Duplicate function names make the key ambiguous; drop both
        // from the validatable set (lookups against them always miss).
        const auto [it, inserted] =
            by_key.emplace(keys_->funcKey(fid), by_func[f]);
        if (!inserted)
            it->second = 0; // poisoned: never matches a real hash
    }
}

const std::uint64_t *
IncrementalMemo::substrateHashes(std::size_t *count) const
{
    *count = substrate_.size();
    return substrate_.data();
}

void
IncrementalMemo::setClosureDigests(std::vector<std::uint64_t> digests)
{
    closure_ = std::move(digests);
    indexByKey(closure_, closure_by_key_);
}

const std::uint32_t *
IncrementalMemo::valueOwners(std::size_t *count) const
{
    if (!keys_) {
        *count = 0;
        return nullptr;
    }
    *count = keys_->owners().size();
    return keys_->owners().data();
}

bool
IncrementalMemo::keyOf(ValueId v, CandKey &out) const
{
    if (!keys_ || v.raw() >= keys_->owners().size())
        return false;
    const std::uint32_t owner = keys_->owners()[v.raw()];
    if (owner == kNoOwner)
        return false;
    out.funcKey = keys_->funcKey(FuncId(owner));
    out.ordinal = keys_->ordinals()[v.raw()];
    return true;
}

bool
IncrementalMemo::depsValid(
    const std::vector<Dep> &deps,
    const std::unordered_map<std::uint64_t, std::uint64_t> &by_key)
{
    for (const Dep &d : deps) {
        const auto it = by_key.find(d.funcKey);
        if (it == by_key.end() || it->second != d.hash || d.hash == 0)
            return false;
    }
    return true;
}

std::vector<IncrementalMemo::Dep>
IncrementalMemo::depsOf(const std::vector<std::uint32_t> &funcs,
                        const std::vector<std::uint64_t> &hashes) const
{
    std::vector<Dep> deps;
    deps.reserve(funcs.size());
    for (const std::uint32_t f : funcs) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        deps.push_back(
            Dep{keys_->funcKey(fid), f < hashes.size() ? hashes[f] : 0});
    }
    return deps;
}

std::uint32_t
IncrementalMemo::toHolder(TypeRef run_ref)
{
    if (!run_ref.valid())
        return 0xffffffffu;
    if (run_ref.raw() < to_holder_cache_.size() &&
        to_holder_cache_[run_ref.raw()] != 0xffffffffu)
        return to_holder_cache_[run_ref.raw()];
    const std::uint32_t raw =
        transferType(module_->types(), run_ref, holder_).raw();
    if (run_ref.raw() >= to_holder_cache_.size())
        to_holder_cache_.resize(run_ref.raw() + 1, 0xffffffffu);
    to_holder_cache_[run_ref.raw()] = raw;
    return raw;
}

TypeRef
IncrementalMemo::toRun(std::uint32_t holder_raw) const
{
    if (holder_raw == 0xffffffffu)
        return TypeRef::invalid();
    if (holder_raw < to_run_cache_.size() &&
        to_run_cache_[holder_raw] != 0xffffffffu)
        return TypeRef(to_run_cache_[holder_raw]);
    const TypeRef ref =
        transferType(holder_, TypeRef(holder_raw), module_->types());
    if (holder_raw >= to_run_cache_.size())
        to_run_cache_.resize(holder_raw + 1, 0xffffffffu);
    to_run_cache_[holder_raw] = ref.raw();
    return ref;
}

bool
IncrementalMemo::lookupCtx(ValueId v, CtxCached &out)
{
    CandKey key;
    if (!keyOf(v, key))
        return false;
    const auto it = ctx_.find(key);
    if (it == ctx_.end() || !depsValid(it->second.deps, substrate_by_key_))
        return false;
    out.hasBound = it->second.hasBound;
    if (out.hasBound)
        out.bound = BoundPair(toRun(it->second.upper),
                              toRun(it->second.lower));
    return true;
}

void
IncrementalMemo::storeCtx(ValueId v, const CtxCached &rec,
                          const std::vector<std::uint32_t> &touched)
{
    CandKey key;
    if (!keyOf(v, key))
        return;
    CtxRecord stored;
    stored.hasBound = rec.hasBound;
    if (rec.hasBound) {
        stored.upper = toHolder(rec.bound.upper);
        stored.lower = toHolder(rec.bound.lower);
    }
    stored.deps = depsOf(touched, substrate_);
    ctx_[key] = std::move(stored);
}

bool
IncrementalMemo::lookupFlow(ValueId v, std::size_t num_sites,
                            FlowCached &out)
{
    CandKey key;
    if (!keyOf(v, key))
        return false;
    const auto it = flow_.find(key);
    if (it == flow_.end() ||
        it->second.siteBounds.size() != num_sites ||
        !depsValid(it->second.deps, substrate_by_key_) ||
        !depsValid(it->second.closureDeps, closure_by_key_))
        return false;
    out.siteBounds.clear();
    out.siteBounds.reserve(num_sites);
    for (const auto &[upper, lower] : it->second.siteBounds)
        out.siteBounds.emplace_back(toRun(upper), toRun(lower));
    out.hasRefined = it->second.hasRefined;
    if (out.hasRefined)
        out.refined = BoundPair(toRun(it->second.upper),
                                toRun(it->second.lower));
    return true;
}

void
IncrementalMemo::storeFlow(ValueId v, const FlowCached &rec,
                           const std::vector<std::uint32_t> &touched,
                           const std::vector<std::uint32_t> &skipped)
{
    CandKey key;
    if (!keyOf(v, key))
        return;
    FlowRecord stored;
    stored.siteBounds.reserve(rec.siteBounds.size());
    for (const BoundPair &bp : rec.siteBounds)
        stored.siteBounds.emplace_back(toHolder(bp.upper),
                                       toHolder(bp.lower));
    stored.hasRefined = rec.hasRefined;
    if (rec.hasRefined) {
        stored.upper = toHolder(rec.refined.upper);
        stored.lower = toHolder(rec.refined.lower);
    }
    stored.deps = depsOf(touched, substrate_);
    stored.closureDeps = depsOf(skipped, closure_);
    flow_[key] = std::move(stored);
}

void
IncrementalMemo::adoptKeys(std::unique_ptr<ModuleKeys> keys,
                           const Module *module)
{
    pending_keys_ = std::move(keys);
    pending_module_ = module;
}

void
IncrementalMemo::clear()
{
    ctx_.clear();
    flow_.clear();
}

void
IncrementalMemo::serialize(ByteWriter &out) const
{
    // Pool every holder ref the records use, then emit records in
    // sorted key order so identical memo states serialize identically.
    TypePoolWriter pool(holder_);
    auto poolRef = [&](std::uint32_t holder_raw) -> std::uint32_t {
        if (holder_raw == 0xffffffffu)
            return kNoTypeIndex;
        return pool.index(TypeRef(holder_raw));
    };

    std::vector<std::pair<CandKey, const CtxRecord *>> ctx_sorted;
    ctx_sorted.reserve(ctx_.size());
    for (const auto &[key, rec] : ctx_)
        ctx_sorted.emplace_back(key, &rec);
    std::vector<std::pair<CandKey, const FlowRecord *>> flow_sorted;
    flow_sorted.reserve(flow_.size());
    for (const auto &[key, rec] : flow_)
        flow_sorted.emplace_back(key, &rec);
    const auto byKey = [](const auto &a, const auto &b) {
        if (a.first.funcKey != b.first.funcKey)
            return a.first.funcKey < b.first.funcKey;
        return a.first.ordinal < b.first.ordinal;
    };
    std::sort(ctx_sorted.begin(), ctx_sorted.end(), byKey);
    std::sort(flow_sorted.begin(), flow_sorted.end(), byKey);

    // First pass interns every referenced type into the pool (pool
    // indices must be assigned before the pool itself is written).
    ByteWriter body;
    body.u64(static_cast<std::uint64_t>(budget_.maxVisited));
    body.u64(static_cast<std::uint64_t>(budget_.maxStack));
    auto writeDepList = [&](const std::vector<Dep> &deps) {
        body.u32(static_cast<std::uint32_t>(deps.size()));
        for (const Dep &d : deps) {
            body.u64(d.funcKey);
            body.u64(d.hash);
        }
    };
    body.u32(static_cast<std::uint32_t>(ctx_sorted.size()));
    for (const auto &[key, rec] : ctx_sorted) {
        body.u64(key.funcKey);
        body.u32(key.ordinal);
        body.u8(rec->hasBound ? 1 : 0);
        if (rec->hasBound) {
            body.u32(poolRef(rec->upper));
            body.u32(poolRef(rec->lower));
        }
        writeDepList(rec->deps);
    }
    body.u32(static_cast<std::uint32_t>(flow_sorted.size()));
    for (const auto &[key, rec] : flow_sorted) {
        body.u64(key.funcKey);
        body.u32(key.ordinal);
        body.u32(static_cast<std::uint32_t>(rec->siteBounds.size()));
        for (const auto &[upper, lower] : rec->siteBounds) {
            body.u32(poolRef(upper));
            body.u32(poolRef(lower));
        }
        body.u8(rec->hasRefined ? 1 : 0);
        if (rec->hasRefined) {
            body.u32(poolRef(rec->upper));
            body.u32(poolRef(rec->lower));
        }
        writeDepList(rec->deps);
        writeDepList(rec->closureDeps);
    }

    pool.write(out);
    out.raw(body.bytes());
}

bool
IncrementalMemo::deserialize(ByteReader &in)
{
    clear();
    TypePoolReader pool;
    if (!pool.read(in, holder_))
        return false;
    auto holderRef = [&](std::uint32_t pool_index,
                         bool &ok) -> std::uint32_t {
        if (pool_index == kNoTypeIndex)
            return 0xffffffffu;
        const TypeRef ref = pool.type(pool_index);
        if (!ref.valid()) {
            ok = false;
            return 0xffffffffu;
        }
        return ref.raw();
    };
    bool ok = true;
    budget_.maxVisited = static_cast<std::size_t>(in.u64());
    budget_.maxStack = static_cast<std::size_t>(in.u64());
    have_budget_ = true;
    auto readDepList = [&](std::vector<Dep> &deps) {
        const std::uint32_t count = in.u32();
        if (!in.ok() || count > 1u << 24) {
            in.fail();
            return;
        }
        deps.reserve(count);
        for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
            Dep d;
            d.funcKey = in.u64();
            d.hash = in.u64();
            deps.push_back(d);
        }
    };

    const std::uint32_t num_ctx = in.u32();
    if (!in.ok() || num_ctx > 1u << 26)
        return false;
    for (std::uint32_t i = 0; i < num_ctx && in.ok() && ok; ++i) {
        CandKey key;
        key.funcKey = in.u64();
        key.ordinal = in.u32();
        CtxRecord rec;
        rec.hasBound = in.u8() != 0;
        if (rec.hasBound) {
            rec.upper = holderRef(in.u32(), ok);
            rec.lower = holderRef(in.u32(), ok);
        }
        readDepList(rec.deps);
        if (in.ok() && ok)
            ctx_.emplace(key, std::move(rec));
    }
    const std::uint32_t num_flow = in.u32();
    if (!in.ok() || num_flow > 1u << 26)
        return false;
    for (std::uint32_t i = 0; i < num_flow && in.ok() && ok; ++i) {
        CandKey key;
        key.funcKey = in.u64();
        key.ordinal = in.u32();
        FlowRecord rec;
        const std::uint32_t num_sites = in.u32();
        if (!in.ok() || num_sites > 1u << 24) {
            in.fail();
            break;
        }
        rec.siteBounds.reserve(num_sites);
        for (std::uint32_t s = 0; s < num_sites && in.ok() && ok; ++s) {
            const std::uint32_t upper = holderRef(in.u32(), ok);
            const std::uint32_t lower = holderRef(in.u32(), ok);
            rec.siteBounds.emplace_back(upper, lower);
        }
        rec.hasRefined = in.u8() != 0;
        if (rec.hasRefined) {
            rec.upper = holderRef(in.u32(), ok);
            rec.lower = holderRef(in.u32(), ok);
        }
        readDepList(rec.deps);
        readDepList(rec.closureDeps);
        if (in.ok() && ok)
            flow_.emplace(key, std::move(rec));
    }
    if (!in.ok() || !ok) {
        clear();
        return false;
    }
    return true;
}

} // namespace serve
} // namespace manta
