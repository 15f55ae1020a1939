/**
 * @file
 * The metamorphic oracle battery of the differential fuzzing harness.
 *
 * Every sampled case is pushed through the whole pipeline and checked
 * against eleven properties that must hold for ANY generated program:
 *
 *  1. verifier    - the generator and the synthesizer only produce
 *                   well-formed MIR, before and after acyclic
 *                   preprocessing.
 *  2. roundtrip   - printing and reparsing reaches a textual fixpoint
 *                   and preserves the module's structural counts.
 *  3. monotonic   - sensitivity refinement is monotone on the type
 *                   lattice: the CS and FS stages only narrow the
 *                   upper bounds FI established (FS refines CS refines
 *                   FI), and FI-precise variables stay precise.
 *  4. ground_truth- the oracle reference built from ground truth
 *                   scores perfectly, and on strict cases (soundness
 *                   noise disabled) the full pipeline never contradicts
 *                   the erased truth.
 *  5. pts_diff    - the sparse worklist and dense reference points-to
 *                   solvers agree location-for-location
 *                   (PtsSolver::Dense, constructed only here and in
 *                   tests).
 *  6. interp      - a concrete run is consistent with static verdicts:
 *                   bug-free programs raise no memory-safety events,
 *                   no value inferred precisely numeric is dereferenced,
 *                   and observed indirect-call targets are contained in
 *                   both the recorded ground truth and the FullTypes
 *                   client's feasible set.
 *  7. lint_stable - the lint framework's diagnostics are invariant
 *                   under a print/parse roundtrip: linting the reparsed
 *                   module and linting its second-generation reparse
 *                   render to identical text reports.
 *  8. walk_diff   - production refinement (fast walker, bottom-up
 *                   SCC waves over the shared summary store,
 *                   flattened hint/CFG indexes, parallel packs) and
 *                   the sequential reference (reference/refine_ref.h)
 *                   produce identical refined bounds, variable- and
 *                   site-level, and the production run condensed the
 *                   callgraph into at least one SCC.
 *  9. snapshot_roundtrip
 *                 - a serve-layer session snapshot (docs/SERVING.md)
 *                   restores into a fresh session whose rendered
 *                   types/lint/icall artifacts are byte-identical to
 *                   the saving session's, a corrupted snapshot is
 *                   rejected with a clean cold fallback, the saving
 *                   session's warm re-analysis of a one-constant edit
 *                   renders what a cold session does, and the MIR
 *                   pool codec reprints the module identically.
 * 10. engine_diff - the polymorphic subtyping core (MANTA_INFER=subtype)
 *                   agrees with the unification core at FI: on every
 *                   variable both engines solved, the subtype interval
 *                   nests inside the unifier's ([F-down, F-up] is no
 *                   wider), and a variable the unifier left Unknown
 *                   stays Unknown - the subtype engine may be strictly
 *                   more precise but never invents evidence. On strict
 *                   cases the subtype full pipeline must additionally
 *                   never contradict the erased ground truth.
 * 11. taint_stable- the interprocedural taint engine's fact table
 *                   equals the one-worklist reference fixpoint
 *                   (reference/taint_ref.h), and its canonical
 *                   artifact (flows, per-function summaries, fixpoint
 *                   counters) is invariant under a print/parse
 *                   roundtrip. The reference is sequential, so this
 *                   pins the verdicts across MANTA_JOBS too.
 *
 * Truth-free oracles (1, 2, 3, 5, 7, 8, 9, 10, 11, and the
 * truth-free parts of 6) can also run over parsed module text, which
 * is what the delta-debugging shrinker and the promoted-reproducer
 * regression tests use.
 */
#ifndef MANTA_FUZZ_ORACLES_H
#define MANTA_FUZZ_ORACLES_H

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "fuzz/sample.h"

namespace manta {
namespace fuzz {

/** The eleven oracles, in the order reported by BENCH_fuzz.json. */
enum class OracleId : std::uint8_t {
    Verifier = 0,
    RoundTrip,
    Monotonic,
    GroundTruth,
    PtsDiff,
    Interp,
    LintStable,
    WalkDiff,
    SnapshotRoundTrip,
    EngineDiff,
    TaintStable,
};

constexpr std::size_t kNumOracles = 11;

/** Stable snake_case oracle name (JSON keys, reproducer headers). */
const char *oracleName(OracleId id);

/** Parse an oracle name back; returns false on no match. */
bool oracleFromName(const std::string &name, OracleId &out);

/**
 * True when the oracle is a property of the module alone, checkable
 * on reparsed text with no generator ground truth (enables text-level
 * shrinking and reproducer regression tests).
 */
bool oracleIsTruthFree(OracleId id);

/** One oracle violation. */
struct OracleFailure
{
    OracleId oracle = OracleId::Verifier;
    std::string detail;
};

/** Per-oracle run/failure tallies (failures count at most 1 per case). */
struct OracleCounters
{
    std::array<std::size_t, kNumOracles> runs{};
    std::array<std::size_t, kNumOracles> failures{};

    void
    merge(const OracleCounters &other)
    {
        for (std::size_t i = 0; i < kNumOracles; ++i) {
            runs[i] += other.runs[i];
            failures[i] += other.failures[i];
        }
    }
};

/** The outcome of one case (or one text-level oracle run). */
struct CaseResult
{
    std::vector<OracleFailure> failures;
    OracleCounters counters;
    std::size_t insts = 0;  ///< Natural-CFG instruction count.

    bool ok() const { return failures.empty(); }
};

/** Materialize one sampled case and run the full battery. */
CaseResult runCase(const FuzzCase &c);

/**
 * Run the truth-free battery over module text (parse + verify are
 * preconditions reported as verifier failures). Regression mode for
 * promoted reproducers.
 */
CaseResult runTextOracles(const std::string &text);

/**
 * Shrinker predicate: does `text` still trip `which`?
 *
 * For OracleId::Verifier: the text parses but fails verification. For
 * every other truth-free oracle: the text parses, verifies, and that
 * oracle reports a violation. Truth-bound checks (ground_truth, the
 * truth half of interp) always return false here - those shrink by
 * config coarsening instead.
 */
bool textFailsOracle(const std::string &text, OracleId which);

} // namespace fuzz
} // namespace manta

#endif // MANTA_FUZZ_ORACLES_H
