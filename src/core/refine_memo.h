/**
 * @file
 * Cross-run memoization of per-candidate refinement results - the core
 * hook behind incremental re-analysis (docs/SERVING.md).
 *
 * Both refinement stages are per-candidate pure given frozen substrates:
 * CS and FS read only the post-FI environment, the DDG, the hint index
 * and the module, never each other's overlays. A candidate's result can
 * therefore be reused across runs when everything its walks *actually
 * read* is unchanged. The walker records the owning function of every
 * value it touches (see DdgWalker::enableTouchCapture); a RefineMemo
 * implementation validates a stored record by comparing per-function
 * substrate content hashes over that recorded touched-set - verification
 * of what was read, not prediction of what might change - and the
 * stages then skip the walk phase for validated candidates. A callee
 * the FS relevance filter skips is recorded as one dependency on its
 * closure digest instead (core/refine_flow.h), so a record never lists
 * the skipped closure function by function.
 *
 * Warm results are byte-identical to cold runs at the rendered-artifact
 * level: bounds are structural types (re-interned through the current
 * run's TypeTable by the memo implementation), and per-PR-5 guarantees
 * walk results never depend on memo sharing. Walk statistics and
 * timings DO differ warm vs cold; artifacts exclude them.
 *
 * The canonical implementation lives in src/serve (IncrementalMemo);
 * core only defines the interface so the pipeline stays free of
 * serialization concerns.
 */
#ifndef MANTA_CORE_REFINE_MEMO_H
#define MANTA_CORE_REFINE_MEMO_H

#include <cstdint>
#include <vector>

#include "analysis/ddg.h"
#include "analysis/pointsto.h"
#include "core/ddg_walk.h"
#include "core/hints.h"
#include "core/unify.h"

namespace manta {

/** Cached outcome of the context-sensitive stage for one candidate. */
struct CtxCached
{
    /**
     * True when the stage produced a refined interval (the collected
     * type set was non-empty). False = candidate passed through as
     * still-over-approximated with no overlay entry.
     */
    bool hasBound = false;
    /** The post-refineWithin interval, in the current run's table. */
    BoundPair bound;
};

/** Cached outcome of the flow-sensitive stage for one candidate. */
struct FlowCached
{
    /**
     * Final bounds per site, parallel to the stage's regenerated site
     * list (def site first, then use sites in instruction order - the
     * enumeration is derived from the candidate's unchanged owning
     * function, so positions line up across runs).
     */
    std::vector<BoundPair> siteBounds;
    /** True when the def-site interval was refined (not lost). */
    bool hasRefined = false;
    /** The post-refineWithin def-site interval when hasRefined. */
    BoundPair refined;
};

/**
 * Cross-run refinement memo consulted by the CS/FS stages. All calls
 * happen on the inference thread, sequentially, between beginRun and
 * the end of infer(); implementations need no internal locking for
 * them. Lookup/store receive ValueIds of the *current* run; the
 * implementation owns the translation to stable cross-run keys.
 */
class RefineMemo
{
  public:
    virtual ~RefineMemo() = default;

    /**
     * Called once per infer() run, after flow-insensitive unification
     * has populated `env`. Returns false to disable memoization for
     * this run (e.g. unsupported configuration); the stages then walk
     * everything cold and store nothing. The module is non-const so
     * the implementation can re-intern cached bounds into the run's
     * TypeTable at lookup time.
     */
    virtual bool beginRun(Module &module, const Ddg &ddg,
                          const HintIndex &hints, const PointsTo &pts,
                          const TypeEnv &env, const WalkBudget &budget) = 0;

    /**
     * Owning-function attribution for touch capture: a numValues-sized
     * array mapping value raw id to owning function raw id (invalid
     * raw = unattributable; candidates touching such values are never
     * cached). Valid until the next beginRun.
     */
    virtual const std::uint32_t *valueOwners(std::size_t *count) const = 0;

    /** True (+ fills `out`) when a validated CS record exists for v. */
    virtual bool lookupCtx(ValueId v, CtxCached &out) = 0;

    /**
     * Store a freshly computed CS outcome. `touched` holds the raw
     * function ids the candidate's walks read (current run's ids).
     */
    virtual void storeCtx(ValueId v, const CtxCached &rec,
                          const std::vector<std::uint32_t> &touched) = 0;

    /**
     * True (+ fills `out`) when a validated FS record exists for v AND
     * its stored site count equals `num_sites` (a mismatch means the
     * validation was somehow stale; treated as a miss).
     */
    virtual bool lookupFlow(ValueId v, std::size_t num_sites,
                            FlowCached &out) = 0;

    /**
     * Per-function substrate hashes of this run, by function raw id
     * (the values the records' function dependencies compare). Valid
     * until the next beginRun.
     */
    virtual const std::uint64_t *substrateHashes(std::size_t *count) const = 0;

    /**
     * This run's closure digest per function raw id: a Merkle hash of
     * everything the FS relevance filter can read about the function's
     * call closure (0 = unusable). The FS stage hands it over before
     * its first lookupFlow; a run that sets none validates no record
     * with closure dependencies.
     */
    virtual void setClosureDigests(std::vector<std::uint64_t> digests) = 0;

    /**
     * Store a freshly computed FS outcome. `touched` holds the raw
     * function ids the candidate read; `skipped` the raw ids of the
     * callees the relevance filter skipped, each of which the record
     * depends on through its closure digest alone.
     */
    virtual void storeFlow(ValueId v, const FlowCached &rec,
                           const std::vector<std::uint32_t> &touched,
                           const std::vector<std::uint32_t> &skipped) = 0;
};

} // namespace manta

#endif // MANTA_CORE_REFINE_MEMO_H
