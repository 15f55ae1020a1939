/**
 * @file
 * Source-sink bug checkers (paper Section 5.3).
 *
 * Five representative detectors run program slicing over the (pruned)
 * DDG:
 *  - NPD: a NULL constant flows to a dereference site.
 *  - RSA: a stack address flows to its own function's return.
 *  - UAF: a freed pointer is used afterwards.
 *  - CMI: attacker-controlled data flows into a command sink.
 *  - BOF: attacker-controlled data is copied unbounded (or over-sized)
 *    into a fixed-size buffer.
 *
 * Type assistance enters in three ways (exactly the paper's design):
 * Table 2 pruning removes offset->pointer dependencies, the type-based
 * indirect-call analysis shrinks the icall edges the slicer adds, and
 * precisely-numeric values act as propagation barriers for string
 * properties (the tainted-atoi false-positive class). Disabling all
 * three yields the Manta-NoType ablation of Table 5.
 */
#ifndef MANTA_CLIENTS_CHECKERS_H
#define MANTA_CLIENTS_CHECKERS_H

#include <string>
#include <vector>

#include "clients/icall.h"
#include "clients/slicing.h"
#include "core/pipeline.h"

namespace manta {

/** Checker identifiers. */
enum class CheckerKind : std::uint8_t { NPD, RSA, UAF, CMI, BOF };

/** Printable checker name. */
const char *checkerName(CheckerKind kind);

/** All five checkers, for iteration. */
inline constexpr CheckerKind allCheckers[] = {
    CheckerKind::NPD, CheckerKind::RSA, CheckerKind::UAF, CheckerKind::CMI,
    CheckerKind::BOF,
};

/** One detected bug. */
struct BugReport
{
    CheckerKind kind = CheckerKind::NPD;
    InstId sourceSite;           ///< Where the bad value originates.
    InstId sinkSite;             ///< Where it is consumed.
    std::uint32_t sinkTag = 0;   ///< Frontend origin tag of the sink.
    std::string message;
};

/**
 * The source-sink bug detector, and the one owner of the type-assisted
 * slice world (slicer with icall edges bound, order oracle,
 * instruction index, icall targets). The lint framework's LintContext
 * holds one detector and hands these out to every checker, so one lint
 * run sets the world up exactly once.
 */
class BugDetector
{
  public:
    /**
     * @param analyzer An analyzer whose DDG has (optionally) been
     *                 pruned; the detector binds indirect-call edges
     *                 into its slicer.
     * @param inference The inference result; null selects the
     *                  Manta-NoType ablation (pruning ignored, ArgCount
     *                  icall targets, no numeric barrier).
     */
    BugDetector(MantaAnalyzer &analyzer, const InferenceResult *inference);

    /** Run one checker. */
    std::vector<BugReport> run(CheckerKind kind) const;

    /** Run all five checkers. */
    std::vector<BugReport> runAll() const;

    /// @name The shared slice world.
    /// @{
    /** Type assistance on (inference given). */
    bool useTypes() const { return inference_ != nullptr; }
    /** Slicer with indirect-call edges already bound. */
    const DataSlicer &slicer() const { return slicer_; }
    const OrderOracle &order() const { return order_; }
    const InstIndex &instIndex() const { return instIndex_; }
    /** Feasible icall targets (FullTypes with types, ArgCount without). */
    const IcallResult &icallTargets() const { return icallTargets_; }
    /** Slice options: pruning and (optionally) the numeric barrier. */
    DataSlicer::Options sliceOptions(bool with_barrier) const;
    /** Inference commits to "numeric" for v (barrier predicate). */
    bool preciselyNumeric(ValueId v) const;
    /** Call sites of externals with the given role, in id order. */
    std::vector<InstId> externalCallsWithRole(ExternRole role) const;
    /// @}

  private:
    std::vector<BugReport> runNpd() const;
    std::vector<BugReport> runRsa() const;
    std::vector<BugReport> runUaf() const;
    std::vector<BugReport> runCmi() const;
    std::vector<BugReport> runBof() const;

    Module &module_;
    MantaAnalyzer &analyzer_;
    const InferenceResult *inference_;
    DataSlicer slicer_;
    OrderOracle order_;
    InstIndex instIndex_;
    IcallResult icallTargets_;
};

} // namespace manta

#endif // MANTA_CLIENTS_CHECKERS_H
