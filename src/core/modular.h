/**
 * @file
 * Bottom-up SCC scheduling of refinement worklists.
 *
 * Scheduling does not change WHAT the refinement stages compute - the
 * sequential merge phase still runs in global worklist order, so every
 * refined bound equals the one-worklist reference
 * (reference/refine_ref.h). What it changes is the ORDER and GROUPING
 * of the read-only walk phase: candidates are grouped by the SCC of
 * their owning function and processed in bottom-up waves over the
 * callgraph condensation (analysis/scc.h). After each wave the
 * workers' freshly memoized FIND_ROOTS/COLLECT_TYPES closures are
 * published into a shared FnSummaryStore (core/fn_summary.h), so
 * traversals from caller SCCs instantiate callee summaries instead of
 * re-walking callee bodies (core/wave_walk.h runs the protocol).
 *
 * Determinism: wave membership and pack boundaries depend only on the
 * module (never on MANTA_JOBS), packs are published sequentially in
 * pack order between waves, and the store is frozen during a wave, so
 * results AND statistics are independent of the job count.
 */
#ifndef MANTA_CORE_MODULAR_H
#define MANTA_CORE_MODULAR_H

#include <cstdint>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/scc.h"
#include "mir/mir.h"

namespace manta {

/** SCC condensation plus value-to-wave attribution for one module. */
class ModularSchedule
{
  public:
    static constexpr std::uint32_t kNoOwner = 0xffffffffu;

    ModularSchedule(const Module &module, const CallGraph &graph);

    const SccGraph &sccs() const { return sccs_; }

    /** Owning function raw id of a value (kNoOwner for literals and
     *  other unattributable values). */
    std::uint32_t
    ownerOf(std::uint32_t value_raw) const
    {
        return value_raw < owner_of_.size() ? owner_of_[value_raw]
                                            : kNoOwner;
    }

    /** Bottom-up wave a value is analyzed in (unowned values: 0). */
    std::uint32_t
    waveOfValue(std::uint32_t value_raw) const
    {
        const std::uint32_t owner = ownerOf(value_raw);
        if (owner == kNoOwner)
            return 0;
        return sccs_.waveOf(sccs_.sccOf(FuncId(owner)));
    }

    /**
     * One walk-phase work unit: positions into the stage's miss list,
     * ascending (i.e. in worklist order). All candidates of a pack
     * belong to the same wave.
     */
    struct Pack
    {
        std::vector<std::size_t> ks;
    };

    /** Packs of one wave, scheduled concurrently. */
    struct Wave
    {
        std::vector<Pack> packs;
    };

    /**
     * Group the miss positions of a stage worklist into bottom-up
     * waves of at-most-`pack_size` packs. Within a wave, candidates
     * keep their relative worklist order; the wave/pack structure is a
     * pure function of the module and the worklist.
     */
    std::vector<Wave> plan(const std::vector<ValueId> &candidates,
                           const std::vector<std::size_t> &misses,
                           std::size_t pack_size) const;

  private:
    SccGraph sccs_;
    std::vector<std::uint32_t> owner_of_;
};

} // namespace manta

#endif // MANTA_CORE_MODULAR_H
