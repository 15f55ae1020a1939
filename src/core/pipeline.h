/**
 * @file
 * The hybrid-sensitive inference pipeline (paper Figure 1).
 *
 * Stages run in increasing precision: global flow-insensitive
 * unification first (capturing hints thoroughly), then context-
 * sensitive refinement on the over-approximated variables, then
 * flow-sensitive refinement on whatever remains over-approximated.
 * Each stage can be toggled, reproducing the paper's ablation groups
 * (Manta-FI, Manta-FS, Manta-FI+FS, Manta-FI+CS+FS).
 *
 * MantaAnalyzer is the library's main entry point: it owns the
 * analysis substrates (memory objects, points-to, DDG, hint index)
 * and produces an InferenceResult.
 */
#ifndef MANTA_CORE_PIPELINE_H
#define MANTA_CORE_PIPELINE_H

#include <memory>
#include <unordered_map>

#include "analysis/ddg.h"
#include "analysis/memobj.h"
#include "analysis/pointsto.h"
#include "core/hints.h"
#include "core/refine_ctx.h"
#include "core/refine_flow.h"
#include "core/unify.h"

namespace manta {

/** Which flow-insensitive inference core populates the TypeEnv. */
enum class InferEngine : std::uint8_t {
    /** Unification over equivalence classes (core/unify.h, default). */
    Unify,
    /** Polymorphic subtyping with per-call-site summary instantiation
     *  (subtype/solver.h). Strictly-nested bounds: never wider than
     *  the unifier's, tighter on polymorphic call patterns. */
    Subtype,
};

/** Unify unless MANTA_INFER=subtype is set in the environment. */
InferEngine defaultInferEngine();

/** Stage toggles; defaults give the full pipeline (FI+CS+FS). */
struct HybridConfig
{
    bool flowInsensitive = true;
    bool contextSensitive = true;
    bool flowSensitive = true;
    /**
     * Run the flow-sensitive stage before the context-sensitive one
     * (the Section 6.4 "Type Refinement Order" ablation). The paper
     * places the more aggressive analysis last; flipping the order
     * lets the flow stage commit to one-sided types before context
     * refinement can disambiguate them.
     */
    bool fsBeforeCs = false;
    WalkBudget budget;

    /**
     * Which flow-insensitive core runs stage 1. Both cores commit the
     * same artifact (per-variable BoundPair sketches in the TypeEnv),
     * so the CS/FS refinement stages and clients work with either;
     * the cross-run refinement memo only engages for the default
     * Unify core (its records key on unifier output).
     * Honors MANTA_INFER=subtype.
     */
    InferEngine inferEngine = defaultInferEngine();

    static HybridConfig
    fiOnly()
    {
        HybridConfig config;
        config.contextSensitive = false;
        config.flowSensitive = false;
        return config;
    }
    static HybridConfig
    fsOnly()
    {
        HybridConfig config;
        config.flowInsensitive = false;
        config.contextSensitive = false;
        return config;
    }
    static HybridConfig
    fiFs()
    {
        HybridConfig config;
        config.contextSensitive = false;
        return config;
    }
    static HybridConfig
    full()
    {
        return HybridConfig{};
    }
    static HybridConfig
    fullFsFirst()
    {
        HybridConfig config;
        config.fsBeforeCs = true;
        return config;
    }

    /** A short label like "FI+CS+FS" for tables. */
    std::string label() const;
};

/** Stage-by-stage counters (drives Figures 2, 9 and 10). */
struct InferenceProfile
{
    StageStats afterFi;          ///< Classification after unification.
    std::size_t fiOver = 0;      ///< |V_O| handed to refinement.
    std::size_t csResolved = 0;  ///< Made precise by context refinement.
    std::size_t csStillOver = 0; ///< Passed on to flow refinement.
    std::size_t fsResolved = 0;  ///< Made precise by flow refinement.
    std::size_t fsLost = 0;      ///< Refined to unknown by flow stage.
    std::size_t csReused = 0;    ///< CS candidates answered from a memo.
    std::size_t fsReused = 0;    ///< FS candidates answered from a memo.
    std::size_t hintCount = 0;
    double seconds = 0.0;        ///< End-to-end wall clock of infer().

    /**
     * Traversal work counters of the refinement stages (queries, memo
     * hits, truncations, steps, peak calling-context depth), merged
     * across every walker the stage ran. Packs are fixed-size and
     * published in pack order, so these are job-count-independent
     * like the bounds; a warm serve run (cross-run memo hits) walks
     * less than a cold one.
     */
    WalkStats csWalk;  ///< Context-sensitive stage.
    WalkStats fsWalk;  ///< Flow-sensitive stage.

    /// @name Modular scheduling counters (zero when CS and FS are off).
    /// @{
    std::size_t sccCount = 0;     ///< Callgraph SCCs.
    std::size_t sccWaves = 0;     ///< Bottom-up wave levels.
    std::size_t summaryRoots = 0; ///< FIND_ROOTS closures published.
    std::size_t summaryTypes = 0; ///< COLLECT_TYPES closures published.
    /** Wall clock building the callgraph condensation + value
     *  attribution (once per analyzer, billed to the run that built
     *  it; publication time is part of cs/fsSeconds). */
    double summarySeconds = 0.0;
    /// @}

    /**
     * Per-stage wall clock. Each infer() call runs on one thread, so
     * these are measured with thread-confined timers; when the
     * parallel harness runs many infer() calls at once, it aggregates
     * profiles AFTER the join (indexed result slots), which keeps the
     * sums exact under concurrency.
     */
    double fiSeconds = 0.0;  ///< Flow-insensitive unification.
    double csSeconds = 0.0;  ///< Context-sensitive refinement.
    double fsSeconds = 0.0;  ///< Flow-sensitive refinement.

    /**
     * Wall clock of the points-to substrate solve. The substrate is
     * built once per analyzer and shared by every infer() call, so
     * this repeats the same one-time cost in each profile rather than
     * attributing it to any single configuration's stages.
     */
    double ptsSeconds = 0.0;

    /**
     * Wall clock spent inside the lint framework (src/lint) when the
     * caller requested diagnostics for this result. Zero when lint
     * never ran. Like the stage timers, the parallel harness sums
     * these after the join.
     */
    double lintSeconds = 0.0;

    /// @name Taint engine counters (zero when taint never ran).
    /// @{
    /** Wall clock of src/taint fixpoints billed to this result. */
    double taintSeconds = 0.0;
    /** Reported source-to-sink flows. */
    std::size_t taintFlows = 0;
    /** Flows the type endpoint gate suppressed. */
    std::size_t taintSuppressed = 0;
    /// @}
};

/** The per-variable/per-site outcome of a pipeline run. */
class InferenceResult
{
  public:
    InferenceResult(Module &module, std::unique_ptr<TypeEnv> env)
        : module_(module), env_(std::move(env))
    {}

    /** Final bounds of a variable. */
    BoundPair valueBounds(ValueId v) const;

    /**
     * Bounds of v at statement s (flow-sensitive view). Falls back to
     * the variable-level bounds when no site refinement applies
     * (paper: F(v) = F(v@s) for precise/unknown variables).
     */
    BoundPair siteBounds(ValueId v, InstId s) const;

    /** Final classification of a variable. */
    TypeClass valueClass(ValueId v) const;

    /**
     * Bounds of one abstract-object field (the type system is
     * field-sensitive, Figure 6): what the flow-insensitive
     * unification concluded for (object, byte offset).
     */
    BoundPair fieldBounds(ObjectId obj, std::int32_t offset) const;

    const InferenceProfile &profile() const { return profile_; }

    /** Mutable profile access (lint billing, harness aggregation). */
    InferenceProfile &profile() { return profile_; }

    TypeTable &types() const { return module_.types(); }

    /** Classification counts over all Argument/InstResult values. */
    StageStats finalStats() const;

    /**
     * Raw refinement overlays (variable- and site-level), exposed so
     * differential harnesses (reference/refine_ref.h's diffOverlays,
     * the walk_diff fuzz oracle) can compare a result with the
     * reference bound-for-bound without enumerating every (value,
     * site) pair.
     */
    const std::unordered_map<ValueId, BoundPair> &
    overlay() const
    {
        return overlay_;
    }
    const std::unordered_map<SiteVar, BoundPair> &
    siteOverlay() const
    {
        return site_overlay_;
    }

    /**
     * Build an oracle result from a ground-truth type map: every mapped
     * value gets a precise singleton, everything else is unknown. Used
     * as the "source-level analysis" reference in the evaluation.
     */
    static InferenceResult
    fromTypeMap(Module &module,
                const std::unordered_map<ValueId, TypeRef> &types);

  private:
    friend class MantaAnalyzer;

    Module &module_;
    std::unique_ptr<TypeEnv> env_;
    std::unordered_map<ValueId, BoundPair> overlay_;
    std::unordered_map<SiteVar, BoundPair> site_overlay_;
    InferenceProfile profile_;
};

/** Top-level analyzer: owns substrates, runs the staged pipeline. */
class MantaAnalyzer
{
  public:
    /**
     * @param module A module that has already been made acyclic
     *               (analysis/acyclic.h); points-to and DDG are built
     *               eagerly here.
     * @param config Stage configuration.
     */
    explicit MantaAnalyzer(Module &module,
                           HybridConfig config = HybridConfig::full());

    /** Run the configured pipeline. */
    InferenceResult infer();

    /** Run with an explicit configuration (substrates are shared). */
    InferenceResult infer(const HybridConfig &config);

    /**
     * Run with a cross-run refinement memo (serve/incremental mode).
     * The memo is consulted and populated by the CS/FS stages; it is
     * only engaged with the unification flow-insensitive stage on (the
     * memo keys candidates by post-FI content), and only if
     * `memo->beginRun(...)` accepts this module/configuration.
     */
    InferenceResult infer(const HybridConfig &config, RefineMemo *memo);

    const PointsTo &pts() const { return *pts_; }
    const MemObjects &memObjects() const { return *objects_; }
    Ddg &ddg() { return *ddg_; }
    const HintIndex &hints() const { return *hints_; }
    Module &module() { return module_; }

    /**
     * Callgraph + SCC condensation + value attribution for the
     * refinement walk waves, built lazily on the first infer() that
     * runs CS or FS (and by the taint engine) and cached
     * for the analyzer's lifetime (the module is frozen). The double
     * return lets the first build be billed to that run's
     * summarySeconds.
     */
    const ModularSchedule &schedule(double *build_seconds = nullptr);

  private:
    Module &module_;
    HybridConfig config_;
    std::unique_ptr<MemObjects> objects_;
    std::unique_ptr<PointsTo> pts_;
    std::unique_ptr<Ddg> ddg_;
    std::unique_ptr<HintIndex> hints_;
    std::unique_ptr<CallGraph> callgraph_;
    std::unique_ptr<ModularSchedule> schedule_;
};

} // namespace manta

#endif // MANTA_CORE_PIPELINE_H
