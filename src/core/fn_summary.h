/**
 * @file
 * Per-function walk summaries for the modular bottom-up scheduler.
 *
 * A summary entry is a completed (never budget-truncated) FIND_ROOTS
 * or COLLECT_TYPES closure keyed by its start value, exactly what
 * DdgWalker memoizes within one walker — lifted out of the walker so
 * every SCC analyzed after the owning function's SCC can instantiate
 * it at the call site instead of re-walking the callee body. Because
 * a memoized answer is bit-identical to a recomputed one (the PR 5
 * walker contract, guarded by the walk_diff oracle), seeding walkers
 * from this store cannot change any refined bound; it only removes
 * repeated traversal work.
 *
 * Concurrency protocol (core/wave_walk.h):
 * within one scheduling wave the store is frozen and read by many
 * walkers concurrently; between waves the scheduler publishes each
 * pack's harvest sequentially in pack order (first entry wins), so
 * the store contents at every wave boundary are independent of
 * MANTA_JOBS. Entries remain valid for one infer() run: they are a
 * function of the frozen DDG, type environment, hint index and walk
 * budget.
 *
 * When touch capture is active (serve incremental mode), entries
 * carry the touched-function list of the query that produced them so
 * a store hit replays the same dirtiness accounting a local memo hit
 * would; an entry harvested without capture poisons capturing
 * candidates instead of silently under-reporting their reads.
 */
#ifndef MANTA_CORE_FN_SUMMARY_H
#define MANTA_CORE_FN_SUMMARY_H

#include <cstdint>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "mir/mir.h"
#include "types/type.h"

namespace manta {

/** Compact per-function accounting of what the store holds. */
struct FnSummary
{
    std::uint32_t rootEntries = 0;  ///< FIND_ROOTS closures published.
    std::uint32_t typeEntries = 0;  ///< COLLECT_TYPES closures published.
};

/** Aggregate store counters (surfaced via InferenceProfile). */
struct SummaryStoreStats
{
    std::size_t publishedRoots = 0;
    std::size_t publishedTypes = 0;
    std::size_t dropped = 0;  ///< Re-published keys (first entry won).
};

/** Cross-SCC walk-summary store. */
class FnSummaryStore
{
  public:
    struct RootsEntry
    {
        std::vector<ValueId> roots;
        std::vector<std::uint32_t> touched;
        bool hasTouched = false;
    };
    struct TypesEntry
    {
        std::vector<TypeRef> types;
        std::vector<std::uint32_t> touched;
        bool hasTouched = false;
    };

    /** One pack's harvest, published between waves. */
    struct Delta
    {
        /** (start value raw, owner function raw, payload). */
        std::vector<std::tuple<std::uint32_t, std::uint32_t, RootsEntry>>
            roots;
        std::vector<std::tuple<std::uint32_t, std::uint32_t, TypesEntry>>
            types;

        bool empty() const { return roots.empty() && types.empty(); }
    };

    /// @name Read side (frozen during a wave; safe to call from many
    /// walker threads concurrently).
    /// @{
    const RootsEntry *
    findRoots(std::uint32_t value_raw) const
    {
        const auto it = roots_.find(value_raw);
        return it == roots_.end() ? nullptr : &it->second;
    }

    const TypesEntry *
    findTypes(std::uint32_t value_raw) const
    {
        const auto it = types_.find(value_raw);
        return it == types_.end() ? nullptr : &it->second;
    }
    /// @}

    /** Publish one harvest (sequential; first entry per key wins). */
    void publish(Delta &&delta);

    /** Per-function entry counts (invalidation/reporting unit). */
    const std::unordered_map<std::uint32_t, FnSummary> &
    perFunction() const
    {
        return per_func_;
    }

    const SummaryStoreStats &stats() const { return stats_; }

    std::size_t numRootEntries() const { return roots_.size(); }
    std::size_t numTypeEntries() const { return types_.size(); }

  private:
    std::unordered_map<std::uint32_t, RootsEntry> roots_;
    std::unordered_map<std::uint32_t, TypesEntry> types_;
    std::unordered_map<std::uint32_t, FnSummary> per_func_;
    SummaryStoreStats stats_;
};

} // namespace manta

#endif // MANTA_CORE_FN_SUMMARY_H
