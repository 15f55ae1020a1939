/**
 * @file
 * The cross-run refinement memo behind warm re-analysis
 * (docs/SERVING.md, "Incremental re-analysis").
 *
 * Stores one record per (function key, ordinal) candidate for each
 * refinement stage. A record remembers, besides the stage outcome,
 * the substrate hash of every function the candidate's walks actually
 * read (the walker's touch capture); it is valid in a later run iff
 * every one of those functions hashes the same there. Validation is
 * therefore verification of reads, not prediction of changes: the
 * flow-insensitive stage always re-runs cold, its per-function output
 * is hashed, and any divergence - however it was caused - invalidates
 * exactly the records that depended on it. An FS record also keeps
 * one closure dependency per callee the relevance filter skipped:
 * the callee's key and its closure digest (core/refine_flow.h), valid
 * iff the current run's digest for that key is the same.
 *
 * Bounds are kept alive across runs in a private holder TypeTable and
 * re-interned into each run's table on lookup; both tables hash-cons,
 * so the transfer is structural and warm bounds are identical to what
 * the cold walk would have produced.
 */
#ifndef MANTA_SERVE_MEMO_H
#define MANTA_SERVE_MEMO_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/refine_memo.h"
#include "serve/keys.h"
#include "support/binio.h"
#include "types/type.h"

namespace manta {
namespace serve {

/** Stable candidate key: (FNV-64 of function name, local ordinal). */
struct CandKey
{
    std::uint64_t funcKey = 0;
    std::uint32_t ordinal = 0;

    friend bool
    operator==(const CandKey &a, const CandKey &b)
    {
        return a.funcKey == b.funcKey && a.ordinal == b.ordinal;
    }
};

struct CandKeyHash
{
    std::size_t
    operator()(const CandKey &k) const noexcept
    {
        Fnv64 h;
        h.u64(k.funcKey);
        h.u32(k.ordinal);
        return static_cast<std::size_t>(h.value());
    }
};

/** The serving layer's RefineMemo implementation. */
class IncrementalMemo : public RefineMemo
{
  public:
    IncrementalMemo() = default;

    // RefineMemo interface (called by the pipeline).
    bool beginRun(Module &module, const Ddg &ddg, const HintIndex &hints,
                  const PointsTo &pts, const TypeEnv &env,
                  const WalkBudget &budget) override;
    const std::uint32_t *valueOwners(std::size_t *count) const override;
    bool lookupCtx(ValueId v, CtxCached &out) override;
    void storeCtx(ValueId v, const CtxCached &rec,
                  const std::vector<std::uint32_t> &touched) override;
    bool lookupFlow(ValueId v, std::size_t num_sites,
                    FlowCached &out) override;
    const std::uint64_t *substrateHashes(std::size_t *count) const override;
    void setClosureDigests(std::vector<std::uint64_t> digests) override;
    void storeFlow(ValueId v, const FlowCached &rec,
                   const std::vector<std::uint32_t> &touched,
                   const std::vector<std::uint32_t> &skipped) override;

    /** Record counts (status reporting, tests). */
    std::size_t numCtxRecords() const { return ctx_.size(); }
    std::size_t numFlowRecords() const { return flow_.size(); }

    /** Drop every stored record (the holder table is hash-consed and
     *  bounded by distinct structures, so it is kept). */
    void clear();

    /**
     * Serialize all records as the snapshot SUMMARIES payload
     * (deterministic: records sorted by key). The walk budget the
     * records were computed under is included; deserializing adopts
     * it, and a later beginRun under a different budget clears them.
     */
    void serialize(ByteWriter &out) const;

    /** Replace this memo's records with a SUMMARIES payload. */
    bool deserialize(ByteReader &in);

    /** The run coordinates computed by the last beginRun (testing). */
    const ModuleKeys *keys() const { return keys_.get(); }

    /**
     * Hand over a ModuleKeys computed for `module` so the next
     * beginRun adopts it instead of recomputing. The session already
     * builds one per submission for its function-level dirty diff;
     * sharing it removes a duplicate full-module pass from the warm
     * path. Dropped unadopted when beginRun sees a different module.
     */
    void adoptKeys(std::unique_ptr<ModuleKeys> keys, const Module *module);

  private:
    /** (function key, the hash it had): a substrate hash, or a
     *  closure digest in FlowRecord::closureDeps. */
    struct Dep
    {
        std::uint64_t funcKey;
        std::uint64_t hash;
    };

    struct CtxRecord
    {
        bool hasBound = false;
        std::uint32_t upper = 0xffffffffu; ///< Holder-table raw ref.
        std::uint32_t lower = 0xffffffffu;
        std::vector<Dep> deps;
    };

    struct FlowRecord
    {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> siteBounds;
        bool hasRefined = false;
        std::uint32_t upper = 0xffffffffu;
        std::uint32_t lower = 0xffffffffu;
        std::vector<Dep> deps;
        std::vector<Dep> closureDeps;  ///< Skipped callees' digests.
    };

    bool keyOf(ValueId v, CandKey &out) const;
    /** Map per-function hashes to function keys (duplicates -> 0). */
    void indexByKey(
        const std::vector<std::uint64_t> &by_func,
        std::unordered_map<std::uint64_t, std::uint64_t> &by_key) const;
    static bool depsValid(
        const std::vector<Dep> &deps,
        const std::unordered_map<std::uint64_t, std::uint64_t> &by_key);
    /** Dependencies on `funcs` (raw ids) at their `hashes` entries. */
    std::vector<Dep> depsOf(const std::vector<std::uint32_t> &funcs,
                            const std::vector<std::uint64_t> &hashes) const;
    std::uint32_t toHolder(TypeRef run_ref);
    TypeRef toRun(std::uint32_t holder_raw) const;

    TypeTable holder_;
    std::unordered_map<CandKey, CtxRecord, CandKeyHash> ctx_;
    std::unordered_map<CandKey, FlowRecord, CandKeyHash> flow_;
    WalkBudget budget_;
    bool have_budget_ = false;

    // Per-run state, valid between beginRun and the next beginRun.
    Module *module_ = nullptr;
    std::unique_ptr<ModuleKeys> keys_;
    std::unique_ptr<ModuleKeys> pending_keys_; ///< From adoptKeys.
    const Module *pending_module_ = nullptr;
    std::vector<std::uint64_t> substrate_;  ///< By func raw id.
    std::unordered_map<std::uint64_t, std::uint64_t> substrate_by_key_;
    std::vector<std::uint64_t> closure_;    ///< By func raw id.
    std::unordered_map<std::uint64_t, std::uint64_t> closure_by_key_;

    // Both tables hash-cons, so a (table, raw) pair maps to one
    // transfer result; caching it turns the per-record recursive
    // re-intern into an array load on the hot warm path. Raw refs are
    // dense table indices, so a flat vector (0xffffffff = unset)
    // beats hashing. Lazily grown: tables intern during refinement.
    mutable std::vector<std::uint32_t> to_run_cache_;    ///< holder->run
    std::vector<std::uint32_t> to_holder_cache_;         ///< run->holder
};

} // namespace serve
} // namespace manta

#endif // MANTA_SERVE_MEMO_H
