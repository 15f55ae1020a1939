#include "analysis/pointsto.h"

#include <algorithm>
#include <cassert>

#include "support/chaos.h"
#include "support/error.h"
#include "support/timer.h"

namespace manta {

const LocSet PointsTo::empty_;

PointsTo::PointsTo(const Module &module, const MemObjects &objects,
                   bool flow_aware, PtsSolver solver)
    : module_(module), objects_(objects), flow_aware_(flow_aware),
      solver_(solver)
{
    value_locs_.assign(module.numValues(), {});
    obj_buckets_.assign(objects.numObjects(), {});
    if (flow_aware_)
        reach_ = std::make_unique<StoreReach>(module_);
}

void
PointsTo::run()
{
    const Timer timer;
    stats_ = Stats{};
    if (solver_ == PtsSolver::Dense) {
        seed();
        runDense();
    } else {
        buildSparseIndexes();
        sparse_running_ = true;
        cursor_ = module_.numInsts(); // seeding precedes every sweep
        seed();
        runSparse();
        sparse_running_ = false;
        releaseSparseState();
        // Injected defect for fuzz-harness validation: silently drop
        // one location from the largest solution set, so the sparse
        // and dense engines disagree (support/chaos.h).
        if (chaosBreakPts().enabled()) {
            std::size_t victim = value_locs_.size();
            for (std::size_t v = 0; v < value_locs_.size(); ++v) {
                if (!value_locs_[v].empty() &&
                        (victim == value_locs_.size() ||
                         value_locs_[v].size() > value_locs_[victim].size()))
                    victim = v;
            }
            if (victim < value_locs_.size()) {
                LocSet pruned;
                const LocSet &locs = value_locs_[victim];
                for (const Loc &loc : locs) {
                    if (pruned.size() + 1 < locs.size())
                        pruned.insert(loc);
                }
                value_locs_[victim] = std::move(pruned);
            }
        }
    }
    stats_.seconds = timer.seconds();
    assert(stats_.converged && "points-to fixpoint hit the pass cap");
}

void
PointsTo::seed()
{
    // Seed address-producing values.
    for (std::size_t v = 0; v < module_.numValues(); ++v) {
        const ValueId vid(static_cast<ValueId::RawType>(v));
        const Value &value = module_.value(vid);
        if (value.kind == ValueKind::GlobalAddr) {
            const ObjectId obj = objects_.objectOfGlobal(value.global);
            if (obj.valid())
                addLoc(vid, Loc{obj, 0});
        } else if (value.kind == ValueKind::InstResult) {
            const Instruction &inst = module_.inst(value.inst);
            if (inst.op == Opcode::Alloca ||
                    (inst.op == Opcode::Call && inst.external.valid())) {
                const ObjectId obj = objects_.objectOfSite(value.inst);
                if (obj.valid())
                    addLoc(vid, Loc{obj, 0});
            }
        }
    }
}

// The fixpoint is capped defensively; the program is acyclic, so
// convergence is quick in practice. Both solvers share the cap so a
// non-convergent input degrades identically under either engine.
namespace {
constexpr std::size_t maxPasses = 64;
} // namespace

void
PointsTo::runDense()
{
    bool changed = true;
    while (changed) {
        if (stats_.passes == maxPasses) {
            // Budget exhausted with work left: the solution is an
            // under-approximation. Record it instead of returning as
            // if converged.
            stats_.converged = false;
            return;
        }
        ++stats_.passes;
        changed = transferAll();
        stats_.pops += module_.numInsts();
    }
    stats_.converged = true;
}

bool
PointsTo::transferAll()
{
    bool changed = false;
    for (std::size_t i = 0; i < module_.numInsts(); ++i) {
        changed |= transferInst(InstId(static_cast<InstId::RawType>(i)));
    }
    return changed;
}

// ---------------------------------------------------------------------------
// Sparse worklist solver.
//
// Dirty instructions are swept in ascending id order, exactly the
// order the dense reference visits them, so every state a sparse
// transfer observes is a state the dense solver would observe too;
// skipped instructions are precisely those whose inputs did not
// change, for which the dense transfer is a no-op. The two engines
// therefore produce bit-identical solutions (including for the
// non-monotone symbolic-index collapse, whose result depends on the
// visit schedule), while the sparse engine re-transfers only what
// changed and touches only the delta of each input.
// ---------------------------------------------------------------------------

void
PointsTo::buildSparseIndexes()
{
    const std::size_t num_values = module_.numValues();
    const std::size_t num_insts = module_.numInsts();
    value_log_.assign(num_values, {});
    addr_readers_.assign(num_values, {});
    bucket_readers_.assign(objects_.numObjects(), {});
    reader_objs_.assign(num_insts, {});
    bucket_seen_.assign(num_insts, {});
    mark_.assign(num_insts, 1); // sweep 1 visits everything, like pass 1

    slot_pool_.clear();
    slot_pool_.reserve(num_insts * 2);
    slot_begin_.assign(num_insts + 1, 0);

    for (std::size_t i = 0; i < num_insts; ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module_.inst(iid);
        slot_begin_[i] = static_cast<std::uint32_t>(slot_pool_.size());
        switch (inst.op) {
          case Opcode::Copy:
          case Opcode::And:
          case Opcode::Or:
            slot_pool_.push_back(module_.operand(inst, 0));
            break;
          case Opcode::Phi:
            slot_pool_.insert(slot_pool_.end(), module_.operands(inst).begin(),
                              module_.operands(inst).end());
            break;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Store:
            slot_pool_.push_back(module_.operand(inst, 0));
            slot_pool_.push_back(module_.operand(inst, 1));
            break;
          case Opcode::Load:
            slot_pool_.push_back(module_.operand(inst, 0));
            addr_readers_[module_.operand(inst, 0).index()].push_back(
                static_cast<std::uint32_t>(i));
            break;
          case Opcode::Call:
            if (inst.callee.valid()) {
                const Function &callee = module_.func(inst.callee);
                const std::size_t n =
                    std::min(callee.params.size(), inst.numOperands());
                for (std::size_t k = 0; k < n; ++k)
                    slot_pool_.push_back(module_.operand(inst, k));
                if (inst.result.valid()) {
                    for (const BlockId bid : callee.blocks) {
                        const BasicBlock &bb = module_.block(bid);
                        if (bb.insts.empty())
                            continue;
                        const Instruction &term =
                            module_.inst(bb.insts.back());
                        if (term.op == Opcode::Ret &&
                                term.numOperands() != 0) {
                            slot_pool_.push_back(module_.operand(term, 0));
                        }
                    }
                }
            } else if (inst.external.valid()) {
                const External &ext = module_.external(inst.external);
                if ((ext.role == ExternRole::StrCopy ||
                     ext.role == ExternRole::BoundedCopy) &&
                        inst.numOperands() >= 2) {
                    slot_pool_.push_back(module_.operand(inst, 0));
                    slot_pool_.push_back(module_.operand(inst, 1));
                    addr_readers_[module_.operand(inst, 1).index()].push_back(
                        static_cast<std::uint32_t>(i));
                }
            }
            break;
          default:
            break;
        }
    }
    slot_begin_[num_insts] = static_cast<std::uint32_t>(slot_pool_.size());
    seen_pool_.assign(slot_pool_.size(), 0);

    // Def->use chains by counting sort: one pass to size each value's
    // row, a prefix sum, then a fill pass.
    user_begin_.assign(num_values + 1, 0);
    for (const ValueId v : slot_pool_)
        ++user_begin_[v.index() + 1];
    for (std::size_t v = 1; v <= num_values; ++v)
        user_begin_[v] += user_begin_[v - 1];
    user_pool_.resize(slot_pool_.size());
    std::vector<std::uint32_t> fill(user_begin_.begin(),
                                    user_begin_.end() - 1);
    for (std::size_t i = 0; i < num_insts; ++i) {
        for (std::uint32_t s = slot_begin_[i]; s < slot_begin_[i + 1]; ++s) {
            user_pool_[fill[slot_pool_[s].index()]++] =
                static_cast<std::uint32_t>(i);
        }
    }
}

void
PointsTo::releaseSparseState()
{
    value_log_ = {};
    slot_pool_ = {};
    slot_begin_ = {};
    seen_pool_ = {};
    user_pool_ = {};
    user_begin_ = {};
    addr_readers_ = {};
    bucket_readers_ = {};
    reader_objs_ = {};
    bucket_seen_ = {};
    ext_payload_ = {};
    mark_ = {};
    ext_delta_ = {};
}

void
PointsTo::runSparse()
{
    const std::size_t num_insts = module_.numInsts();
    std::size_t pending = num_insts;
    while (pending > 0) {
        if (stats_.passes == maxPasses) {
            stats_.converged = false;
            return;
        }
        ++stats_.passes;
        for (std::size_t i = 0; i < num_insts; ++i) {
            if (mark_[i] != 1)
                continue;
            mark_[i] = 0;
            cursor_ = i;
            ++stats_.pops;
            sparseTransfer(InstId(static_cast<InstId::RawType>(i)));
        }
        cursor_ = num_insts;
        pending = 0;
        for (std::size_t i = 0; i < num_insts; ++i) {
            if (mark_[i] == 2) {
                mark_[i] = 1;
                ++pending;
            }
        }
    }
    stats_.converged = true;
}

void
PointsTo::dirty(std::uint32_t inst)
{
    if (inst > cursor_)
        mark_[inst] = 1; // still ahead of the sweep: process this sweep
    else if (mark_[inst] == 0)
        mark_[inst] = 2; // already swept past: next sweep
}

void
PointsTo::registerReader(std::uint32_t obj, std::uint32_t site)
{
    std::vector<std::uint32_t> &objs = reader_objs_[site];
    const auto pos = std::lower_bound(objs.begin(), objs.end(), obj);
    if (pos != objs.end() && *pos == obj)
        return;
    objs.insert(pos, obj);
    bucket_readers_[obj].push_back(site);
}

bool
PointsTo::constOf(ValueId v, std::int64_t &out) const
{
    const Value &val = module_.value(v);
    if (val.kind != ValueKind::Constant)
        return false;
    out = val.constValue;
    return true;
}

std::uint32_t &
PointsTo::bucketSeen(InstId site, std::uint64_t key)
{
    auto &watermarks = bucket_seen_[site.index()];
    const auto pos = std::lower_bound(
        watermarks.begin(), watermarks.end(), key,
        [](const auto &entry, std::uint64_t k) { return entry.first < k; });
    if (pos != watermarks.end() && pos->first == key)
        return pos->second;
    return watermarks.insert(pos, {key, 0})->second;
}

void
PointsTo::gatherBucketDelta(InstId site, std::uint32_t obj,
                            std::int32_t offset, LocSet *sink_set,
                            std::vector<Loc> *sink_delta, ValueId sink_value)
{
    const Loc key{ObjectId(obj), offset};
    const std::uint32_t idx = field_index_.find(key.packed());
    if (idx == FlatU64Map::npos)
        return;
    std::uint32_t &watermark = bucketSeen(site, key.packed());
    const FieldBucket &bucket = buckets_[idx];
    const auto limit = static_cast<std::uint32_t>(bucket.entries.size());
    for (std::uint32_t e = watermark; e < limit; ++e) {
        const FieldEntry &entry = bucket.entries[e];
        if (flow_aware_ && site.valid() && reach_ &&
                !reach_->reaches(entry.site, entry.addr, site)) {
            continue;
        }
        ++stats_.bucketHits;
        if (sink_value.valid()) {
            addLoc(sink_value, entry.payload);
        } else if (sink_set->insert(entry.payload).second && sink_delta) {
            sink_delta->push_back(entry.payload);
        }
    }
    watermark = limit;
}

void
PointsTo::gatherLocDelta(InstId site, const Loc &addr, LocSet *sink_set,
                         std::vector<Loc> *sink_delta, ValueId sink_value)
{
    const std::uint32_t obj = addr.obj.raw();
    if (addr.collapsed()) {
        // Snapshot the bucket list: gathering cannot create buckets,
        // but be explicit about iteration stability.
        const std::vector<std::int32_t> &offsets =
            obj_buckets_[addr.obj.index()];
        for (std::size_t k = 0; k < offsets.size(); ++k) {
            gatherBucketDelta(site, obj, offsets[k], sink_set, sink_delta,
                              sink_value);
        }
        return;
    }
    gatherBucketDelta(site, obj, addr.offset, sink_set, sink_delta,
                      sink_value);
    gatherBucketDelta(site, obj, Loc::unknownOffset, sink_set, sink_delta,
                      sink_value);
}

void
PointsTo::sparseTransfer(InstId iid)
{
    const Instruction &inst = module_.inst(iid);
    const std::size_t i = iid.index();
    const ValueId *slots = slot_pool_.data() + slot_begin_[i];
    std::uint32_t *seen = seen_pool_.data() + slot_begin_[i];
    const std::size_t num_slots = slot_begin_[i + 1] - slot_begin_[i];

    // Consume slot k's unread log window NOW, at the point where the
    // dense transfer reads that input. Windows must be taken lazily,
    // not snapshotted up front: a transfer can write a value it also
    // reads later in the same visit (a callee that returns one of its
    // own parameters binds the argument, then reads it back), and the
    // dense engine's sequential reads observe those just-added
    // locations within the same visit.
    const auto take = [&](std::size_t k) {
        const auto to = static_cast<std::uint32_t>(
            value_log_[slots[k].index()].size());
        const std::uint32_t from = seen[k];
        seen[k] = to;
        stats_.deltaLocs += to - from;
        return std::pair<std::uint32_t, std::uint32_t>{from, to};
    };
    const auto delta_apply = [&](std::size_t k, ValueId sink) {
        const auto [from, to] = take(k);
        // Re-index the log each step: addLoc may grow sink's own log,
        // and a degenerate module could alias sink with the slot.
        for (std::uint32_t e = from; e < to; ++e)
            addLoc(sink, value_log_[slots[k].index()][e]);
    };

    switch (inst.op) {
      case Opcode::Copy:
      case Opcode::And:
      case Opcode::Or:
        // Copies and alignment masking keep the pointer.
        delta_apply(0, inst.result);
        break;
      case Opcode::Phi:
        for (std::size_t k = 0; k < num_slots; ++k)
            delta_apply(k, inst.result);
        break;
      case Opcode::Add:
      case Opcode::Sub: {
        const ValueId a = module_.operand(inst, 0);
        const ValueId b = module_.operand(inst, 1);
        const std::int64_t sign = inst.op == Opcode::Add ? 1 : -1;
        std::int64_t c = 0;
        const auto shift_delta = [&](std::size_t k, std::int64_t delta) {
            const auto [from, to] = take(k);
            const std::vector<Loc> &log = value_log_[slots[k].index()];
            for (std::uint32_t e = from; e < to; ++e)
                addLoc(inst.result, shiftLoc(log[e], delta));
        };
        const auto collapse_delta = [&](std::size_t k) {
            const auto [from, to] = take(k);
            const std::vector<Loc> &log = value_log_[slots[k].index()];
            for (std::uint32_t e = from; e < to; ++e)
                addLoc(inst.result, Loc{log[e].obj, Loc::unknownOffset});
        };
        if (constOf(b, c)) {
            shift_delta(0, sign * c);
            take(1);
        } else if (inst.op == Opcode::Add && constOf(a, c)) {
            take(0);
            shift_delta(1, c);
        } else {
            // Symbolic index: collapse (array fields become monolithic).
            // ptr - ptr yields an offset, not a pointer: no locations.
            const bool both = !locs(a).empty() && !locs(b).empty();
            if (!both) {
                collapse_delta(0);
                if (inst.op == Opcode::Add)
                    collapse_delta(1);
                else
                    take(1);
            } else {
                take(0);
                take(1);
            }
        }
        break;
      }
      case Opcode::Load: {
        // Old address locations re-read only the *new* entries of
        // their buckets (per-bucket watermarks); new address
        // locations read their buckets from the start.
        const auto [from, to] = take(0);
        (void)from;
        const std::vector<Loc> &log =
            value_log_[module_.operand(inst, 0).index()];
        for (std::uint32_t k = 0; k < to; ++k)
            gatherLocDelta(iid, log[k], nullptr, nullptr, inst.result);
        break;
      }
      case Opcode::Store: {
        const ValueId addr = module_.operand(inst, 0);
        const ValueId payload = module_.operand(inst, 1);
        const std::vector<Loc> &alog = value_log_[addr.index()];
        const std::vector<Loc> &plog = value_log_[payload.index()];
        const auto [addr_from, addr_to] = take(0);
        const auto [payload_from, payload_to] = take(1);
        // Old addresses receive only the new payload...
        for (std::uint32_t a = 0; a < addr_from; ++a) {
            for (std::uint32_t p = payload_from; p < payload_to; ++p)
                storeEntry(alog[a], plog[p], iid, addr);
        }
        // ...new addresses receive everything seen so far.
        for (std::uint32_t a = addr_from; a < addr_to; ++a) {
            for (std::uint32_t p = 0; p < payload_to; ++p)
                storeEntry(alog[a], plog[p], iid, addr);
        }
        break;
      }
      case Opcode::Call: {
        if (inst.callee.valid()) {
            const Function &callee = module_.func(inst.callee);
            const std::size_t n =
                std::min(callee.params.size(), inst.numOperands());
            for (std::size_t k = 0; k < n; ++k)
                delta_apply(k, callee.params[k]);
            // Slots beyond the bound arguments are the callee's
            // return values feeding the call result.
            if (inst.result.valid()) {
                for (std::size_t k = n; k < num_slots; ++k)
                    delta_apply(k, inst.result);
            }
        } else if (num_slots > 0) {
            // Copy-routine external (slots = {dst, src}): move buffer
            // contents src -> dst through the unknown-offset bucket.
            const ValueId dst = module_.operand(inst, 0);
            const ValueId src = module_.operand(inst, 1);
            LocSet &payload_cache = ext_payload_[iid.raw()];
            ext_delta_.clear();
            const auto [src_from, src_to] = take(1);
            (void)src_from;
            const std::vector<Loc> &slog = value_log_[src.index()];
            for (std::uint32_t k = 0; k < src_to; ++k) {
                gatherLocDelta(iid, slog[k], &payload_cache, &ext_delta_,
                               ValueId::invalid());
            }
            const std::vector<Loc> &dlog = value_log_[dst.index()];
            const auto [dst_from, dst_to] = take(0);
            for (std::uint32_t d = 0; d < dst_from; ++d) {
                for (const Loc &p : ext_delta_) {
                    storeEntry(Loc{dlog[d].obj, Loc::unknownOffset}, p,
                               iid, ValueId::invalid());
                }
            }
            for (std::uint32_t d = dst_from; d < dst_to; ++d) {
                for (const Loc &p : payload_cache) {
                    storeEntry(Loc{dlog[d].obj, Loc::unknownOffset}, p,
                               iid, ValueId::invalid());
                }
            }
            // strcpy/memcpy return the destination pointer.
            if (inst.result.valid()) {
                for (std::uint32_t d = dst_from; d < dst_to; ++d)
                    addLoc(inst.result, dlog[d]);
            }
        }
        break;
      }
      default:
        break;
    }
    // No end-of-visit window sync: a transfer may append to a slot's
    // own log after reading it (a recursive call binding its params to
    // each other), and those entries must stay unconsumed so the next
    // visit applies them — exactly when the dense engine would.
}

// ---------------------------------------------------------------------------
// Shared storage and queries.
// ---------------------------------------------------------------------------

const LocSet &
PointsTo::locs(ValueId value) const
{
    MANTA_ASSERT(value.valid() && value.index() < value_locs_.size(),
                 "locs of invalid value");
    return value_locs_[value.index()];
}

LocSet
PointsTo::fieldPts(ObjectId obj, std::int32_t offset) const
{
    LocSet out;
    gatherBucket(obj.raw(), offset, InstId::invalid(), out);
    return out;
}

std::vector<std::pair<ObjectId, std::int32_t>>
PointsTo::fieldBuckets() const
{
    std::vector<std::pair<ObjectId, std::int32_t>> out;
    out.reserve(buckets_.size());
    for (std::size_t o = 0; o < obj_buckets_.size(); ++o) {
        for (const std::int32_t off : obj_buckets_[o])
            out.emplace_back(ObjectId(static_cast<ObjectId::RawType>(o)),
                             off);
    }
    return out;
}

const PointsTo::FieldBucket *
PointsTo::findBucket(std::uint32_t obj, std::int32_t offset) const
{
    const std::uint32_t idx =
        field_index_.find(Loc{ObjectId(obj), offset}.packed());
    return idx == FlatU64Map::npos ? nullptr : &buckets_[idx];
}

void
PointsTo::gatherBucket(std::uint32_t obj, std::int32_t offset,
                       InstId load_site, LocSet &out) const
{
    const FieldBucket *bucket = findBucket(obj, offset);
    if (!bucket)
        return;
    for (const FieldEntry &entry : bucket->entries) {
        if (flow_aware_ && load_site.valid() && reach_ &&
                !reach_->reaches(entry.site, entry.addr, load_site)) {
            continue;
        }
        out.insert(entry.payload);
    }
}

LocSet
PointsTo::loadedLocs(const Loc &addr_loc, InstId load_site) const
{
    LocSet result;
    if (addr_loc.collapsed()) {
        if (addr_loc.obj.index() < obj_buckets_.size()) {
            for (const std::int32_t off : obj_buckets_[addr_loc.obj.index()])
                gatherBucket(addr_loc.obj.raw(), off, load_site, result);
        }
        return result;
    }
    gatherBucket(addr_loc.obj.raw(), addr_loc.offset, load_site, result);
    gatherBucket(addr_loc.obj.raw(), Loc::unknownOffset, load_site, result);
    return result;
}

bool
PointsTo::addLocs(ValueId value, const LocSet &locs)
{
    bool changed = false;
    for (const Loc &loc : locs)
        changed |= addLoc(value, loc);
    return changed;
}

bool
PointsTo::addLoc(ValueId value, const Loc &loc)
{
    if (!value_locs_[value.index()].insert(loc).second)
        return false;
    if (sparse_running_) {
        value_log_[value.index()].push_back(loc);
        const std::uint32_t ub = user_begin_[value.index()];
        const std::uint32_t ue = user_begin_[value.index() + 1];
        for (std::uint32_t u = ub; u < ue; ++u)
            dirty(user_pool_[u]);
        for (const std::uint32_t site : addr_readers_[value.index()])
            registerReader(loc.obj.raw(), site);
    }
    return true;
}

bool
PointsTo::storeInto(const Loc &addr_loc, const LocSet &locs, InstId site,
                    ValueId addr)
{
    bool changed = false;
    for (const Loc &loc : locs)
        changed |= storeEntry(addr_loc, loc, site, addr);
    return changed;
}

bool
PointsTo::storeEntry(const Loc &addr_loc, const Loc &payload, InstId site,
                     ValueId addr)
{
    const std::int32_t bucket_off =
        addr_loc.collapsed() ? Loc::unknownOffset : addr_loc.offset;
    const Loc key{addr_loc.obj, bucket_off};
    const auto [idx, created] = field_index_.insert(
        key.packed(), static_cast<std::uint32_t>(buckets_.size()));
    if (created) {
        buckets_.emplace_back();
        obj_buckets_[addr_loc.obj.index()].push_back(bucket_off);
    }
    FieldBucket &bucket = buckets_[idx];
    const FieldEntry entry{payload, site, addr};
    const auto pos = std::lower_bound(
        bucket.sorted.begin(), bucket.sorted.end(), entry,
        [&bucket](std::uint32_t at, const FieldEntry &e) {
            return bucket.entries[at] < e;
        });
    if (pos != bucket.sorted.end() && !(entry < bucket.entries[*pos]))
        return false;
    bucket.sorted.insert(
        pos, static_cast<std::uint32_t>(bucket.entries.size()));
    bucket.entries.push_back(entry);
    if (sparse_running_) {
        for (const std::uint32_t reader :
                 bucket_readers_[addr_loc.obj.index()]) {
            dirty(reader);
        }
    }
    return true;
}

Loc
PointsTo::shiftLoc(const Loc &loc, std::int64_t delta) const
{
    if (loc.collapsed())
        return loc;
    const std::int64_t off = loc.offset + delta;
    const std::uint32_t size = objects_.object(loc.obj).sizeBytes;
    if (off < 0 || (size > 0 && off >= size)) {
        // Out-of-object arithmetic: conservatively unknown offset.
        return Loc{loc.obj, Loc::unknownOffset};
    }
    return Loc{loc.obj, static_cast<std::int32_t>(off)};
}

LocSet
PointsTo::shifted(const LocSet &locs, std::int64_t delta) const
{
    LocSet result;
    for (const Loc &loc : locs)
        result.insert(shiftLoc(loc, delta));
    return result;
}

LocSet
PointsTo::collapseAll(const LocSet &locs) const
{
    LocSet result;
    for (const Loc &loc : locs)
        result.insert(Loc{loc.obj, Loc::unknownOffset});
    return result;
}

// ---------------------------------------------------------------------------
// Dense reference transfer functions (PtsSolver::Dense).
// ---------------------------------------------------------------------------

bool
PointsTo::transferInst(InstId iid)
{
    const Instruction &inst = module_.inst(iid);
    bool changed = false;

    switch (inst.op) {
      case Opcode::Copy:
        changed |= addLocs(inst.result, locs(module_.operand(inst, 0)));
        break;
      case Opcode::Phi:
        for (const ValueId op : module_.operands(inst))
            changed |= addLocs(inst.result, locs(op));
        break;
      case Opcode::Add:
      case Opcode::Sub: {
        const ValueId a = module_.operand(inst, 0);
        const ValueId b = module_.operand(inst, 1);
        const std::int64_t sign = inst.op == Opcode::Add ? 1 : -1;
        std::int64_t c = 0;
        if (constOf(b, c)) {
            changed |= addLocs(inst.result, shifted(locs(a), sign * c));
        } else if (inst.op == Opcode::Add && constOf(a, c)) {
            changed |= addLocs(inst.result, shifted(locs(b), c));
        } else {
            // Symbolic index: collapse (array fields become monolithic).
            // ptr - ptr yields an offset, not a pointer: no locations.
            const bool both = !locs(a).empty() && !locs(b).empty();
            if (!both) {
                changed |= addLocs(inst.result, collapseAll(locs(a)));
                if (inst.op == Opcode::Add)
                    changed |= addLocs(inst.result, collapseAll(locs(b)));
            }
        }
        break;
      }
      case Opcode::And:
      case Opcode::Or:
        // Alignment masking keeps the pointer but may tweak low bits.
        changed |= addLocs(inst.result, locs(module_.operand(inst, 0)));
        break;
      case Opcode::Load: {
        for (const Loc &addr : locs(module_.operand(inst, 0)))
            changed |= addLocs(inst.result, loadedLocs(addr, iid));
        break;
      }
      case Opcode::Store: {
        const LocSet &payload = locs(module_.operand(inst, 1));
        for (const Loc &addr : locs(module_.operand(inst, 0)))
            changed |= storeInto(addr, payload, iid, module_.operand(inst, 0));
        break;
      }
      case Opcode::Call: {
        if (inst.callee.valid()) {
            const Function &callee = module_.func(inst.callee);
            const std::size_t n =
                std::min(callee.params.size(), inst.numOperands());
            for (std::size_t i = 0; i < n; ++i)
                changed |= addLocs(callee.params[i], locs(module_.operand(inst, i)));
            if (inst.result.valid()) {
                for (const BlockId bid : callee.blocks) {
                    const BasicBlock &bb = module_.block(bid);
                    if (bb.insts.empty())
                        continue;
                    const Instruction &term = module_.inst(bb.insts.back());
                    if (term.op == Opcode::Ret && term.numOperands() != 0) {
                        changed |= addLocs(inst.result,
                                           locs(module_.operand(term, 0)));
                    }
                }
            }
        } else {
            changed |= transferExternalCall(iid, inst);
        }
        break;
      }
      default:
        break;
    }
    return changed;
}

bool
PointsTo::transferExternalCall(InstId iid, const Instruction &inst)
{
    const External &ext = module_.external(inst.external);
    bool changed = false;
    switch (ext.role) {
      case ExternRole::StrCopy:
      case ExternRole::BoundedCopy: {
        // Copy the contents of the source buffer into the destination
        // buffer (coarsely, through the unknown-offset bucket).
        if (inst.numOperands() < 2)
            break;
        LocSet payload;
        for (const Loc &src : locs(module_.operand(inst, 1))) {
            const LocSet loaded = loadedLocs(src, iid);
            payload.unionWith(loaded);
        }
        for (const Loc &dst : locs(module_.operand(inst, 0))) {
            changed |= storeInto(Loc{dst.obj, Loc::unknownOffset}, payload,
                                 iid, ValueId::invalid());
        }
        // strcpy/memcpy return the destination pointer.
        if (inst.result.valid())
            changed |= addLocs(inst.result, locs(module_.operand(inst, 0)));
        break;
      }
      default:
        break;
    }
    return changed;
}

} // namespace manta
