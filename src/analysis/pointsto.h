/**
 * @file
 * Field-sensitive, inclusion-based whole-program points-to analysis
 * (paper Section 3).
 *
 * Pointer values are mapped to sets of (object, byte offset) locations;
 * object fields form their own points-to buckets, so pointers stored
 * into structures are tracked per field. Pointer arithmetic with a
 * constant shifts the offset; symbolic indexing collapses the offset
 * to "unknown" (the paper's array-collapsing unsound choice). Direct
 * calls bind actuals to formals and returns to results; indirect calls
 * and recursion are not modeled (paper's well-identified choices) -
 * the module must have been made acyclic first.
 *
 * Two solvers compute the same solution:
 *
 *  - The **sparse worklist solver** (default) precomputes def->use
 *    chains per SSA value plus load/store dependency edges per object,
 *    and re-transfers only instructions whose inputs actually changed,
 *    propagating deltas (the newly added locations) instead of whole
 *    sets. Its sweep schedule visits dirty instructions in ascending
 *    id order, which makes it observationally identical to the dense
 *    reference (see docs/ARCHITECTURE.md, "Points-to solver").
 *  - The **dense reference** re-transfers every instruction per pass.
 *    Only an explicit `PtsSolver::Dense` constructor argument selects
 *    it: the differential tests and the pts_diff fuzz oracle.
 */
#ifndef MANTA_ANALYSIS_POINTSTO_H
#define MANTA_ANALYSIS_POINTSTO_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "analysis/locset.h"
#include "analysis/memobj.h"
#include "analysis/reach.h"
#include "mir/mir.h"
#include "support/flat_map.h"

namespace manta {

/** Which fixpoint engine computes the points-to solution. */
enum class PtsSolver : std::uint8_t {
    Sparse, ///< Worklist + delta propagation (default).
    Dense,  ///< Re-transfer everything per pass (reference).
};

/** Result of the points-to analysis. */
class PointsTo
{
  public:
    /** Counters exposed for benchmarks, profiles and tests. */
    struct Stats
    {
        std::size_t passes = 0;     ///< Sweeps over the instruction pool.
        std::size_t pops = 0;       ///< Instruction transfers executed.
        std::size_t deltaLocs = 0;  ///< Locations consumed from deltas.
        std::size_t bucketHits = 0; ///< Field-bucket entries gathered.
        bool converged = false;     ///< False when the pass cap was hit.
        double seconds = 0.0;       ///< Wall clock of run().
    };

    /**
     * @param flow_aware When true (the default, matching the paper's
     *        flow-sensitive points-to), a load only observes stores
     *        whose site may precede it on the CFG, with same-block
     *        strong updates. When false, the analysis degrades to the
     *        classic flow-insensitive inclusion style.
     * @param solver Fixpoint engine; Dense is the differential
     *        reference.
     */
    PointsTo(const Module &module, const MemObjects &objects,
             bool flow_aware = true, PtsSolver solver = PtsSolver::Sparse);

    /** Run the inclusion fixpoint. */
    void run();

    /** Locations a value may point to (empty set for non-pointers). */
    const LocSet &locs(ValueId value) const;

    /** The contents bucket of one object field (flow-insensitive view). */
    LocSet fieldPts(ObjectId obj, std::int32_t offset) const;

    /**
     * Everything a load through `addr_loc` may read: the matching field
     * bucket plus the unknown-offset bucket (or all buckets when the
     * address itself is collapsed). When `load_site` is valid and the
     * analysis is flow-aware, only stores that may reach the load are
     * observed.
     */
    LocSet loadedLocs(const Loc &addr_loc,
                      InstId load_site = InstId::invalid()) const;

    /** Every populated (object, offset) field bucket. */
    std::vector<std::pair<ObjectId, std::int32_t>> fieldBuckets() const;

    /**
     * The store-to-load reachability tables this analysis queries, or
     * null when not flow-aware. Downstream substrate builders (the
     * DDG) reuse them instead of recomputing the same closure.
     */
    const StoreReach *reach() const { return reach_.get(); }

    /** Number of fixpoint passes taken (for stats/tests). */
    std::size_t passes() const { return stats_.passes; }

    /** Solver counters; populated by run(). */
    const Stats &stats() const { return stats_; }

    /** The engine this instance runs. */
    PtsSolver solver() const { return solver_; }

    const MemObjects &objects() const { return objects_; }

  private:
    /** One stored payload with provenance for flow filtering. */
    struct FieldEntry
    {
        Loc payload;
        InstId site;      ///< The storing instruction (invalid = any).
        ValueId addr;     ///< Address SSA value for strong updates.

        friend bool
        operator<(const FieldEntry &a, const FieldEntry &b)
        {
            if (!(a.payload == b.payload))
                return a.payload < b.payload;
            return a.site < b.site;
        }
    };

    /**
     * One field bucket: entries in insertion order (the delta log the
     * sparse solver consumes) plus a sorted index for O(log n) dedup.
     */
    struct FieldBucket
    {
        std::vector<FieldEntry> entries;
        std::vector<std::uint32_t> sorted;
    };

    void seed();
    void runDense();
    void runSparse();
    bool transferAll();
    bool addLocs(ValueId value, const LocSet &locs);
    bool addLoc(ValueId value, const Loc &loc);
    bool storeInto(const Loc &addr_loc, const LocSet &locs, InstId site,
                   ValueId addr);
    bool storeEntry(const Loc &addr_loc, const Loc &payload, InstId site,
                    ValueId addr);
    Loc shiftLoc(const Loc &loc, std::int64_t delta) const;
    LocSet shifted(const LocSet &locs, std::int64_t delta) const;
    LocSet collapseAll(const LocSet &locs) const;
    bool transferInst(InstId iid);
    bool transferExternalCall(InstId iid, const Instruction &inst);
    void gatherBucket(std::uint32_t obj, std::int32_t offset,
                      InstId load_site, LocSet &out) const;
    const FieldBucket *findBucket(std::uint32_t obj,
                                  std::int32_t offset) const;

    // Sparse machinery.
    bool constOf(ValueId v, std::int64_t &out) const;
    void buildSparseIndexes();
    void releaseSparseState();
    void sparseTransfer(InstId iid);
    std::uint32_t &bucketSeen(InstId site, std::uint64_t key);
    void gatherLocDelta(InstId site, const Loc &addr, LocSet *sink_set,
                        std::vector<Loc> *sink_delta, ValueId sink_value);
    void gatherBucketDelta(InstId site, std::uint32_t obj,
                           std::int32_t offset, LocSet *sink_set,
                           std::vector<Loc> *sink_delta, ValueId sink_value);
    void dirty(std::uint32_t inst);
    void registerReader(std::uint32_t obj, std::uint32_t site);

    const Module &module_;
    const MemObjects &objects_;
    bool flow_aware_;
    PtsSolver solver_;
    std::vector<LocSet> value_locs_;

    // Field buckets: packed (obj, offset) key -> dense bucket index.
    FlatU64Map field_index_;
    std::vector<FieldBucket> buckets_;
    /** Offsets of every bucket an object owns (collapsed-load fanout). */
    std::vector<std::vector<std::int32_t>> obj_buckets_;

    std::unique_ptr<StoreReach> reach_;
    Stats stats_;

    // --- Sparse-solver state (built by buildSparseIndexes) ---
    bool sparse_running_ = false;
    std::size_t cursor_ = 0;
    /** 0 = clean, 1 = scheduled this sweep, 2 = scheduled next sweep. */
    std::vector<std::uint8_t> mark_;
    /** Per value: insertion-ordered log of its locations (the delta). */
    std::vector<std::vector<Loc>> value_log_;
    /**
     * Per instruction: the SSA values its transfer function reads,
     * in CSR layout — instruction i's slots live in
     * slot_pool_[slot_begin_[i] .. slot_begin_[i + 1]), with the
     * consumed-log watermark for each slot at the same index of
     * seen_pool_. Flat arrays keep the index build to a handful of
     * allocations instead of two small vectors per instruction.
     */
    std::vector<ValueId> slot_pool_;
    std::vector<std::uint32_t> slot_begin_;
    std::vector<std::uint32_t> seen_pool_;
    /** Def->use chains, same CSR layout keyed by value id. */
    std::vector<std::uint32_t> user_pool_;
    std::vector<std::uint32_t> user_begin_;
    /** Per value: load-like sites dereferencing it (Load / copy src). */
    std::vector<std::vector<std::uint32_t>> addr_readers_;
    /** Per object: load-like sites whose address set includes it. */
    std::vector<std::vector<std::uint32_t>> bucket_readers_;
    /** Per load-like site: objects already registered (dedup). */
    std::vector<std::vector<std::uint32_t>> reader_objs_;
    /** Per load-like site: (bucket key, entries consumed) watermarks. */
    std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>>
        bucket_seen_;
    /** Per copy-routine call site: payload gathered so far. */
    std::unordered_map<std::uint32_t, LocSet> ext_payload_;
    /** Scratch: freshly gathered copy-routine payload locations. */
    std::vector<Loc> ext_delta_;

    static const LocSet empty_;
};

} // namespace manta

#endif // MANTA_ANALYSIS_POINTSTO_H
