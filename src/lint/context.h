/**
 * @file
 * LintContext: the shared read-only world every checker runs over.
 *
 * One context wraps one analyzed module: the MIR itself, the
 * (optional) inference result, the points-to/DDG/CFG substrates, the
 * paper's BugDetector (which owns the one slicer with icall edges
 * bound, the order oracle, the instruction index and the icall target
 * sets), and the optional frontend ground truth (origin tags,
 * slot-recycling map). Per-function CFGs and dominator trees are
 * built lazily and cached.
 *
 * Threading: a LintContext is NOT thread-safe (the lazy caches are
 * unsynchronized). The parallel lint driver builds one context per
 * project inside each worker, which is also what keeps runs
 * deterministic under MANTA_JOBS (see docs/LINT.md).
 */
#ifndef MANTA_LINT_CONTEXT_H
#define MANTA_LINT_CONTEXT_H

#include <memory>
#include <unordered_map>

#include "analysis/dominators.h"
#include "clients/checkers.h"
#include "frontend/groundtruth.h"
#include "lint/diagnostic.h"
#include "taint/taint.h"

namespace manta {
namespace lint {

/** The read-only world a checker inspects. */
class LintContext
{
  public:
    /**
     * @param analyzer    Analyzer whose DDG has (optionally) been
     *                    pruned, exactly as for BugDetector.
     * @param inference   Type source; null = no-type mode (the
     *                    ablation: pruning, icall filtering and
     *                    numeric barriers all off).
     * @param truth       Frontend ground truth; null for stripped input.
     * @param taintNoType Ablation flip for the taint family (runLint
     *                    reads MANTA_TAINT_NOTYPE): the taint engine still
     *                    propagates, but without the numeric barrier
     *                    and endpoint gate, so addr-leak / taint-deref /
     *                    format-string lose their type-based FP
     *                    suppression while every other checker keeps
     *                    its types.
     */
    LintContext(MantaAnalyzer &analyzer, const InferenceResult *inference,
                const GroundTruth *truth, bool taintNoType);

    LintContext(const LintContext &) = delete;
    LintContext &operator=(const LintContext &) = delete;

    /// @name The analyzed world.
    /// @{
    Module &module() const { return module_; }
    MantaAnalyzer &analyzer() const { return analyzer_; }
    const InferenceResult *inference() const { return inference_; }
    const GroundTruth *truth() const { return truth_; }
    bool useTypes() const { return detector_.useTypes(); }
    const PointsTo &pts() const { return analyzer_.pts(); }
    const MemObjects &memObjects() const { return analyzer_.memObjects(); }
    const Ddg &ddg() const { return analyzer_.ddg(); }
    /// @}

    /// @name Shared traversal machinery.
    /// @{
    /** Slicer with indirect-call edges already bound. */
    const DataSlicer &slicer() const { return detector_.slicer(); }
    const OrderOracle &order() const { return detector_.order(); }
    const InstIndex &instIndex() const { return detector_.instIndex(); }
    /** Feasible icall targets (FullTypes with types, ArgCount without). */
    const IcallResult &icallTargets() const
    {
        return detector_.icallTargets();
    }
    /** Per-function CFG (lazy, cached). */
    const Cfg &cfg(FuncId func) const;
    /** Per-function dominator tree (lazy, cached). */
    const Dominators &dominators(FuncId func) const;
    /**
     * The paper's BugDetector over this context's analyzer, built once
     * in the constructor; it owns the slicer, order oracle,
     * instruction index and icall targets above. The five paper
     * adapters call through it, which is what keeps Table 5 output
     * bit-identical.
     */
    const BugDetector &paperDetector() const { return detector_; }
    /**
     * The interprocedural taint fixpoint over this context's analyzer
     * (lazy; shared by the addr-leak / taint-deref / format-string
     * checkers). Runs with the endpoint gate + barrier unless
     * useTypes is off or the constructor's taintNoType flips the
     * ablation. The run's wall clock and flow counters are credited to
     * the inference profile (taintSeconds / taintFlows /
     * taintSuppressed).
     */
    const taint::TaintResult &taint() const;
    /// @}

    /// @name Checker helpers.
    /// @{
    /** Slice options: pruning and (optionally) the numeric barrier. */
    DataSlicer::Options sliceOptions(bool with_barrier) const
    {
        return detector_.sliceOptions(with_barrier);
    }
    /** Inference commits to "numeric" for v (barrier predicate). */
    bool preciselyNumeric(ValueId v) const
    {
        return detector_.preciselyNumeric(v);
    }
    /** Inference commits to "pointer" for v. */
    bool definitelyPtr(ValueId v) const;
    /** Function owning an instruction. */
    FuncId funcOf(InstId inst) const;
    /** Name of the function owning an instruction. */
    std::string funcNameOf(InstId inst) const;
    /** Build a diagnostic location for an instruction. */
    DiagLocation loc(InstId inst, std::string role) const;
    /** Call sites of externals with the given role, in id order. */
    std::vector<InstId> externalCallsWithRole(ExternRole role) const
    {
        return detector_.externalCallsWithRole(role);
    }
    /**
     * Does instruction `a` dominate instruction `b`? False when they
     * live in different functions. Same-block: position order.
     */
    bool dominatesInst(InstId a, InstId b) const;
    /**
     * Stable suppression fingerprint `checker@func#block:pos` for a
     * diagnostic anchored at `primary` (baseline files store these).
     * The block index is function-local, so fingerprints survive
     * re-analysis and unrelated module growth.
     */
    std::string fingerprint(const std::string &checker,
                            InstId primary) const;
    /// @}

  private:
    MantaAnalyzer &analyzer_;
    Module &module_;
    const InferenceResult *inference_;
    const GroundTruth *truth_;
    bool taintNoType_;
    BugDetector detector_;
    // Lazy, unsynchronized caches (single-threaded use; see header).
    mutable std::unordered_map<std::uint32_t, std::unique_ptr<Cfg>> cfgs_;
    mutable std::unordered_map<std::uint32_t, std::unique_ptr<Dominators>>
        doms_;
    mutable std::unique_ptr<taint::TaintResult> taint_;
};

} // namespace lint
} // namespace manta

#endif // MANTA_LINT_CONTEXT_H
