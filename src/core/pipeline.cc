#include "core/pipeline.h"

#include <cstdlib>

#include "subtype/solver.h"
#include "support/env.h"
#include "support/timer.h"

namespace manta {

InferEngine
defaultInferEngine()
{
    static const InferEngine engine = []() {
        static const char *const choices[] = {"unify", "subtype"};
        const std::size_t pick = parseEnvChoice(
            "MANTA_INFER", std::getenv("MANTA_INFER"), choices, 2, 0);
        return pick == 1 ? InferEngine::Subtype : InferEngine::Unify;
    }();
    return engine;
}

std::string
HybridConfig::label() const
{
    std::string out;
    if (flowInsensitive)
        out = "FI";
    if (contextSensitive)
        out += out.empty() ? "CS" : "+CS";
    if (flowSensitive)
        out += out.empty() ? "FS" : "+FS";
    return out.empty() ? "none" : out;
}

BoundPair
InferenceResult::valueBounds(ValueId v) const
{
    const auto it = overlay_.find(v);
    if (it != overlay_.end())
        return it->second;
    const BoundPair bp = env_->boundsOf(TypeVar::of(v));
    if (bp.classify(module_.types()) == TypeClass::Unknown)
        return BoundPair::anyType(module_.types());
    return bp;
}

BoundPair
InferenceResult::siteBounds(ValueId v, InstId s) const
{
    const auto it = site_overlay_.find(SiteVar{v, s});
    if (it != site_overlay_.end())
        return it->second;
    return valueBounds(v);
}

TypeClass
InferenceResult::valueClass(ValueId v) const
{
    return valueBounds(v).classify(module_.types());
}

BoundPair
InferenceResult::fieldBounds(ObjectId obj, std::int32_t offset) const
{
    return env_->boundsOf(TypeVar::field(obj, offset));
}

StageStats
InferenceResult::finalStats() const
{
    StageStats stats;
    for (std::size_t i = 0; i < module_.numValues(); ++i) {
        const ValueId vid(static_cast<ValueId::RawType>(i));
        const ValueKind kind = module_.value(vid).kind;
        if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
            continue;
        switch (valueClass(vid)) {
          case TypeClass::Precise: ++stats.precise; break;
          case TypeClass::Over: ++stats.over; break;
          case TypeClass::Unknown: ++stats.unknown; break;
        }
    }
    return stats;
}

InferenceResult
InferenceResult::fromTypeMap(
    Module &module, const std::unordered_map<ValueId, TypeRef> &types)
{
    InferenceResult result(module,
                           std::make_unique<TypeEnv>(module.types()));
    for (const auto &[v, t] : types) {
        if (t.valid())
            result.overlay_.emplace(v, BoundPair::precise(t));
    }
    return result;
}

MantaAnalyzer::MantaAnalyzer(Module &module, HybridConfig config)
    : module_(module), config_(config)
{
    objects_ = std::make_unique<MemObjects>(module_);
    pts_ = std::make_unique<PointsTo>(module_, *objects_);
    pts_->run();
    ddg_ = std::make_unique<Ddg>(module_, *pts_);
    hints_ = std::make_unique<HintIndex>(module_, pts_.get());
}

const ModularSchedule &
MantaAnalyzer::schedule(double *build_seconds)
{
    if (!schedule_) {
        Timer timer;
        callgraph_ = std::make_unique<CallGraph>(module_);
        schedule_ = std::make_unique<ModularSchedule>(module_, *callgraph_);
        if (build_seconds != nullptr)
            *build_seconds += timer.seconds();
    }
    return *schedule_;
}

InferenceResult
MantaAnalyzer::infer()
{
    return infer(config_);
}

InferenceResult
MantaAnalyzer::infer(const HybridConfig &config)
{
    return infer(config, nullptr);
}

InferenceResult
MantaAnalyzer::infer(const HybridConfig &config, RefineMemo *memo)
{
    const HybridConfig saved = config_;
    config_ = config;
    Timer timer;
    auto env = std::make_unique<TypeEnv>(module_.types());
    TypeEnv &env_ref = *env;
    InferenceResult result(module_, std::move(env));
    result.profile_.hintCount = hints_->numHints();
    result.profile_.ptsSeconds = pts_->stats().seconds;

    // Stage 1: global flow-insensitive unification.
    std::vector<ValueId> over_approx;
    if (config_.flowInsensitive) {
        const ScopedSeconds fi_clock(result.profile_.fiSeconds);
        if (config_.inferEngine == InferEngine::Subtype) {
            subtype::SubtypeInference fi(module_, *pts_, *hints_);
            result.profile_.afterFi = fi.run(env_ref);
        } else {
            FlowInsensitiveInference fi(module_, *pts_, *hints_);
            result.profile_.afterFi = fi.run(env_ref);
        }
        for (std::size_t i = 0; i < module_.numValues(); ++i) {
            const ValueId vid(static_cast<ValueId::RawType>(i));
            const ValueKind kind = module_.value(vid).kind;
            if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
                continue;
            if (env_ref.classifyOf(TypeVar::of(vid)) == TypeClass::Over)
                over_approx.push_back(vid);
        }
        result.profile_.fiOver = over_approx.size();
    } else if (config_.flowSensitive) {
        // Standalone flow-sensitive analysis: every variable is a
        // candidate; no pre-analysis evidence exists.
        for (std::size_t i = 0; i < module_.numValues(); ++i) {
            const ValueId vid(static_cast<ValueId::RawType>(i));
            const ValueKind kind = module_.value(vid).kind;
            if (kind == ValueKind::Argument || kind == ValueKind::InstResult)
                over_approx.push_back(vid);
        }
    }

    // The memo keys candidate records by post-FI content, so it only
    // engages when the unification FI stage ran; beginRun lets the
    // memo itself veto (e.g. on a budget or configuration mismatch
    // with its stored records).
    if (memo != nullptr) {
        if (!config_.flowInsensitive ||
                config_.inferEngine != InferEngine::Unify ||
                !memo->beginRun(module_, *ddg_, *hints_, *pts_, env_ref,
                                config_.budget))
            memo = nullptr;
    }

    // Bottom-up SCC waves with one shared summary store for the whole
    // run (CS then FS walk over the same frozen environment and hint
    // index, so FS instantiates the closures CS published).
    const ModularSchedule *sched = nullptr;
    FnSummaryStore store;
    if (config_.contextSensitive || config_.flowSensitive) {
        sched = &schedule(&result.profile_.summarySeconds);
        result.profile_.sccCount = sched->sccs().numSccs();
        result.profile_.sccWaves = sched->sccs().numWaves();
    }

    auto run_cs = [&](const std::vector<ValueId> &candidates) {
        const ScopedSeconds cs_clock(result.profile_.csSeconds);
        CtxRefinement cs(module_, *ddg_, *hints_, env_ref, *sched, store,
                         config_.budget, memo);
        CtxRefineResult cs_result = cs.run(candidates);
        result.profile_.csResolved = cs_result.resolved;
        result.profile_.csStillOver = cs_result.stillOver.size();
        result.profile_.csWalk = cs_result.walk;
        result.profile_.csReused = cs_result.reused;
        for (const auto &[v, bp] : cs_result.refined)
            result.overlay_[v] = bp;
        return std::move(cs_result.stillOver);
    };
    auto run_fs = [&](const std::vector<ValueId> &candidates) {
        const ScopedSeconds fs_clock(result.profile_.fsSeconds);
        FlowRefinement fs(module_, *ddg_, *hints_, env_ref, *sched, store,
                          config_.budget, memo);
        FlowRefineResult fs_result = fs.run(candidates);
        result.profile_.fsResolved = fs_result.resolved;
        result.profile_.fsLost = fs_result.lost;
        result.profile_.fsWalk = fs_result.walk;
        result.profile_.fsReused = fs_result.reused;
        std::vector<ValueId> still_over;
        for (const auto &[v, bp] : fs_result.refined) {
            result.overlay_[v] = bp;
        }
        for (const ValueId v : candidates) {
            const auto it = fs_result.refined.find(v);
            const BoundPair bp = it != fs_result.refined.end()
                                     ? it->second
                                     : env_ref.boundsOf(TypeVar::of(v));
            if (bp.classify(module_.types()) != TypeClass::Precise)
                still_over.push_back(v);
        }
        for (auto &[sv, bp] : fs_result.siteBounds)
            result.site_overlay_[sv] = bp;
        return still_over;
    };

    if (config_.fsBeforeCs && config_.flowInsensitive &&
            config_.flowSensitive && config_.contextSensitive) {
        // Ablation order (Section 6.4): aggressive stage first.
        const auto still_over = run_fs(over_approx);
        run_cs(still_over);
    } else {
        // Paper order: context-sensitive refinement on V_O first...
        std::vector<ValueId> fs_candidates = over_approx;
        if (config_.contextSensitive && config_.flowInsensitive)
            fs_candidates = run_cs(over_approx);
        // ...then flow-sensitive refinement on the remainder.
        if (config_.flowSensitive)
            run_fs(fs_candidates);
    }

    result.profile_.summaryRoots = store.numRootEntries();
    result.profile_.summaryTypes = store.numTypeEntries();
    result.profile_.seconds = timer.seconds();
    config_ = saved;
    return result;
}

} // namespace manta
