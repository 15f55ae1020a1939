/**
 * @file
 * The walk phase both refinement stages share: bottom-up SCC waves
 * over the callgraph condensation (core/modular.h) against one shared
 * FnSummaryStore (core/fn_summary.h).
 *
 * A stage's miss list is planned into waves of fixed-size packs. Each
 * wave's packs run concurrently on the shared task pool while the store
 * is frozen; after the wave, every pack's freshly memoized closures are
 * published sequentially in pack order, so callee-wave closures are
 * instantiated by caller waves instead of re-walked, and the store at
 * every wave boundary (hence every later summary hit and every walk
 * counter) is independent of MANTA_JOBS. The stages' merge phases run
 * afterwards, sequentially in worklist order, so the refined bounds do
 * not depend on the schedule at all.
 */
#ifndef MANTA_CORE_WAVE_WALK_H
#define MANTA_CORE_WAVE_WALK_H

#include <memory>
#include <mutex>
#include <vector>

#include "core/ddg_walk.h"
#include "core/fn_summary.h"
#include "core/modular.h"
#include "support/task_pool.h"

namespace manta {

/** Candidates per pack; fixed so packs, and therefore memo sharing and
 *  the walk statistics, do not depend on the worker count. */
constexpr std::size_t kWalkPackSize = 128;

/**
 * Run `walk(worker, k)` for every position k of `misses` (indexes into
 * `candidates`), wave by wave, and return the merged pack statistics.
 *
 * `Worker` provides resetStats(), stats() and
 * harvestSummaries(delta, schedule) like DdgWalker; `make()` returns a
 * fresh one with the store attached. Workers allocate module-sized
 * scratch, so a freelist recycles them across packs and waves. Reuse
 * is invisible to results: harvest drains the memo, scratch is
 * epoch-stamped, and visited keys are value/instruction ids, never
 * interner ids.
 */
template <typename Worker, typename Make, typename Walk>
WalkStats
runWalkWaves(const ModularSchedule &schedule, FnSummaryStore &store,
             const std::vector<ValueId> &candidates,
             const std::vector<std::size_t> &misses, Make make, Walk walk)
{
    WalkStats total;
    std::vector<std::unique_ptr<Worker>> owned;
    std::vector<Worker *> idle;
    std::mutex idle_mu;
    auto acquire = [&]() -> Worker * {
        std::lock_guard<std::mutex> lock(idle_mu);
        if (idle.empty()) {
            owned.push_back(make());
            return owned.back().get();
        }
        Worker *w = idle.back();
        idle.pop_back();
        return w;
    };
    for (const auto &wave : schedule.plan(candidates, misses, kWalkPackSize)) {
        const std::size_t np = wave.packs.size();
        std::vector<WalkStats> stats(np);
        std::vector<FnSummaryStore::Delta> deltas(np);
        auto runPack = [&](std::size_t p) {
            Worker *w = acquire();
            w->resetStats();
            for (const std::size_t k : wave.packs[p].ks)
                walk(*w, k);
            stats[p] = w->stats();
            w->harvestSummaries(deltas[p], schedule);
            std::lock_guard<std::mutex> lock(idle_mu);
            idle.push_back(w);
        };
        if (np > 1)
            sharedPool().parallelFor(np, runPack);
        else
            runPack(0);
        for (std::size_t p = 0; p < np; ++p) {
            total.merge(stats[p]);
            store.publish(std::move(deltas[p]));
        }
    }
    return total;
}

} // namespace manta

#endif // MANTA_CORE_WAVE_WALK_H
