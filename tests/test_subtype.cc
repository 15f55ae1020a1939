/**
 * @file
 * The proving harness of the polymorphic subtyping core
 * (src/subtype/): property tests for the constraint algebra
 * (saturation idempotence, label variance, seeding/substitution
 * soundness), the engine-agreement differential suite (on every
 * standard-corpus project the subtype interval of every variable nests
 * inside the unification interval, and Unknown is never invented), the
 * interpreter ground-truth tripwire (the subtype engine introduces no
 * typed-deref or icall-containment violation the unifier did not
 * already have), and the ablation-flip scenario: a polymorphic
 * identity the unifier provably merges and the subtype engine keeps
 * precise per call site.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "analysis/acyclic.h"
#include "analysis/memobj.h"
#include "analysis/pointsto.h"
#include "clients/icall.h"
#include "core/hints.h"
#include "core/pipeline.h"
#include "core/unify.h"
#include "eval/harness.h"
#include "eval/metrics.h"
#include "frontend/generator.h"
#include "fuzz/oracles.h"
#include "fuzz/sample.h"
#include "mir/interp.h"
#include "mir/printer.h"
#include "reference/refine_ref.h"
#include "subtype/constraint.h"
#include "subtype/solver.h"

namespace manta {
namespace {

using subtype::CapLabel;
using subtype::ConstraintSystem;
using subtype::SubVarId;

// ---- Constraint algebra properties --------------------------------

class AlgebraTest : public ::testing::Test
{
  protected:
    TypeTable types_;
    ConstraintSystem cs_{types_};

    TypeRef i64() { return types_.intTy(64); }
    TypeRef p64() { return types_.ptr(types_.reg(64)); }

    static bool
    hasEdge(const ConstraintSystem &cs, SubVarId a, SubVarId b)
    {
        const auto &s = cs.succs(a);
        return std::find(s.begin(), s.end(), b) != s.end();
    }
};

TEST_F(AlgebraTest, ForwardEvidenceFlowsAlongEdges)
{
    const SubVarId a = cs_.makeVar();
    const SubVarId b = cs_.makeVar();
    cs_.addSub(a, b);
    cs_.addAtom(a, i64());
    cs_.solve();
    // a <: b: what a is evidences what b at least is.
    EXPECT_EQ(cs_.boundsOf(a).upper, i64());
    EXPECT_EQ(cs_.boundsOf(b).upper, i64());
    EXPECT_EQ(cs_.boundsOf(b).lower, i64());
}

TEST_F(AlgebraTest, BackwardEvidenceFlowsAgainstEdges)
{
    const SubVarId a = cs_.makeVar();
    const SubVarId b = cs_.makeVar();
    cs_.addSub(a, b);
    cs_.addAtom(b, p64());
    cs_.solve();
    // a <: b: evidence about b is an upper bound on a.
    EXPECT_EQ(cs_.boundsOf(a).upper, p64());
}

TEST_F(AlgebraTest, EvidenceIsTransitiveAlongChains)
{
    const SubVarId a = cs_.makeVar();
    const SubVarId b = cs_.makeVar();
    const SubVarId c = cs_.makeVar();
    cs_.addSub(a, b);
    cs_.addSub(b, c);
    cs_.addAtom(a, i64());
    cs_.solve();
    EXPECT_EQ(cs_.boundsOf(c).upper, i64());
    // And backward from the sink.
    cs_.addAtom(c, p64());
    cs_.solve();
    EXPECT_EQ(cs_.boundsOf(a).upper, types_.join(i64(), p64()));
}

TEST_F(AlgebraTest, AtomsFoldAsJoinUpperMeetLower)
{
    const SubVarId a = cs_.makeVar();
    cs_.addAtom(a, i64());
    cs_.addAtom(a, p64());
    cs_.solve();
    EXPECT_EQ(cs_.boundsOf(a).upper, types_.join(i64(), p64()));
    EXPECT_EQ(cs_.boundsOf(a).lower, types_.meet(i64(), p64()));
}

TEST_F(AlgebraTest, SelfAndDuplicateEdgesAreDropped)
{
    const SubVarId a = cs_.makeVar();
    const SubVarId b = cs_.makeVar();
    cs_.addSub(a, a);
    EXPECT_EQ(cs_.numEdges(), 0u);
    cs_.addSub(a, b);
    cs_.addSub(a, b);
    EXPECT_EQ(cs_.numEdges(), 1u);
}

TEST_F(AlgebraTest, DerivedVariablesAreMemoized)
{
    const SubVarId p = cs_.makeVar();
    const SubVarId l3 = cs_.derived(p, CapLabel::Field, 3);
    EXPECT_EQ(cs_.derived(p, CapLabel::Field, 3), l3);
    EXPECT_EQ(cs_.tryDerived(p, CapLabel::Field, 3), l3);
    EXPECT_EQ(cs_.tryDerived(p, CapLabel::Field, 4),
              subtype::kInvalidSubVar);
    EXPECT_NE(cs_.derived(p, CapLabel::Field, 4), l3);
}

TEST_F(AlgebraTest, CovariantLabelsSaturateForward)
{
    // p <: q derives p.l <: q.l for Load, Field and Out.
    for (const CapLabel label :
         {CapLabel::Load, CapLabel::Field, CapLabel::Out}) {
        EXPECT_TRUE(subtype::labelCovariant(label));
        TypeTable types;
        ConstraintSystem cs(types);
        const SubVarId p = cs.makeVar();
        const SubVarId q = cs.makeVar();
        const SubVarId dp = cs.derived(p, label, 1);
        const SubVarId dq = cs.derived(q, label, 1);
        cs.addSub(p, q);
        EXPECT_GT(cs.saturate(), 0u);
        EXPECT_TRUE(hasEdge(cs, dp, dq));
        EXPECT_FALSE(hasEdge(cs, dq, dp));
    }
}

TEST_F(AlgebraTest, ContravariantLabelsSaturateBackward)
{
    // p <: q derives q.l <: p.l for Store and In.
    for (const CapLabel label : {CapLabel::Store, CapLabel::In}) {
        EXPECT_FALSE(subtype::labelCovariant(label));
        TypeTable types;
        ConstraintSystem cs(types);
        const SubVarId p = cs.makeVar();
        const SubVarId q = cs.makeVar();
        const SubVarId dp = cs.derived(p, label, 2);
        const SubVarId dq = cs.derived(q, label, 2);
        cs.addSub(p, q);
        EXPECT_GT(cs.saturate(), 0u);
        EXPECT_TRUE(hasEdge(cs, dq, dp));
        EXPECT_FALSE(hasEdge(cs, dp, dq));
    }
}

TEST_F(AlgebraTest, SaturationMatchesOperandsExactly)
{
    // field<0> and field<8> of related parents never connect.
    const SubVarId p = cs_.makeVar();
    const SubVarId q = cs_.makeVar();
    const SubVarId f0 = cs_.derived(p, CapLabel::Field, 0);
    const SubVarId f8 = cs_.derived(q, CapLabel::Field, 8);
    cs_.addSub(p, q);
    EXPECT_EQ(cs_.saturate(), 0u);
    EXPECT_FALSE(hasEdge(cs_, f0, f8));
}

TEST_F(AlgebraTest, SaturationIsIdempotent)
{
    // A chain with mixed-variance children on every node.
    const SubVarId p = cs_.makeVar();
    const SubVarId q = cs_.makeVar();
    const SubVarId r = cs_.makeVar();
    for (const SubVarId v : {p, q, r}) {
        cs_.derived(v, CapLabel::Load, 0);
        cs_.derived(v, CapLabel::Store, 0);
        cs_.derived(v, CapLabel::In, 1);
    }
    cs_.addSub(p, q);
    cs_.addSub(q, r);
    const std::size_t first = cs_.saturate();
    EXPECT_GT(first, 0u);
    // Closure: re-saturating a closed system adds nothing, no matter
    // how often it is asked.
    EXPECT_EQ(cs_.saturate(), 0u);
    EXPECT_EQ(cs_.saturate(), 0u);
}

TEST_F(AlgebraTest, SeedingMatchesAtomFolding)
{
    // seed(v, bp, bp) is observationally the same as having folded the
    // underlying atoms directly - the substitution the summary
    // instantiation relies on.
    ConstraintSystem direct(types_);
    const SubVarId d = direct.makeVar();
    direct.addAtom(d, i64());
    direct.addAtom(d, p64());
    direct.solve();

    BoundPair folded = BoundPair::unknown(types_);
    folded.addHint(types_, i64());
    folded.addHint(types_, p64());
    const SubVarId s = cs_.makeVar();
    cs_.seed(s, folded, folded);
    cs_.solve();

    EXPECT_EQ(cs_.boundsOf(s).upper, direct.boundsOf(d).upper);
    EXPECT_EQ(cs_.boundsOf(s).lower, direct.boundsOf(d).lower);
}

TEST_F(AlgebraTest, SummaryInstantiationMatchesDirectEdges)
{
    // Calling through an In/Out interface mirror of `param <: ret`
    // gives the caller the same bounds as wiring the callee body in
    // directly.
    TypeTable t2;
    ConstraintSystem direct(t2);
    {
        const SubVarId arg = direct.makeVar();
        const SubVarId param = direct.makeVar();
        const SubVarId ret = direct.makeVar();
        const SubVarId res = direct.makeVar();
        direct.addSub(arg, param);
        direct.addSub(param, ret);
        direct.addSub(ret, res);
        direct.addAtom(arg, t2.intTy(64));
        direct.solve();
        EXPECT_EQ(direct.boundsOf(res).upper, t2.intTy(64));
    }

    const SubVarId arg = cs_.makeVar();
    const SubVarId res = cs_.makeVar();
    const SubVarId site = cs_.makeVar();
    const SubVarId in0 = cs_.derived(site, CapLabel::In, 0);
    const SubVarId out = cs_.derived(site, CapLabel::Out, 0);
    cs_.addSub(in0, out);  // the mapped interface edge of `id`
    cs_.addSub(arg, in0);
    cs_.addSub(out, res);
    cs_.addAtom(arg, i64());
    cs_.solve();
    EXPECT_EQ(cs_.boundsOf(res).upper, i64());
    EXPECT_EQ(cs_.boundsOf(res).lower, i64());
}

// ---- Engine agreement on the standard corpus ----------------------

/** Values both stages classify: arguments and instruction results. */
bool
isTypedValue(const Module &m, ValueId v)
{
    const ValueKind kind = m.value(v).kind;
    return kind == ValueKind::Argument || kind == ValueKind::InstResult;
}

struct NestingTally
{
    std::size_t violations = 0;
    std::size_t invented = 0;   ///< unify Unknown, subtype not.
    std::size_t narrower = 0;   ///< subtype interval strictly tighter.
    std::size_t flipped = 0;    ///< unify not Precise, subtype Precise.
};

NestingTally
tallyNesting(Module &m, const InferenceResult &uni,
             const InferenceResult &sub)
{
    NestingTally t;
    TypeTable &table = m.types();
    for (std::size_t i = 0; i < m.numValues(); ++i) {
        const ValueId v(static_cast<ValueId::RawType>(i));
        if (!isTypedValue(m, v))
            continue;
        const TypeClass uc = uni.valueClass(v);
        const TypeClass sc = sub.valueClass(v);
        if (uc == TypeClass::Unknown) {
            if (sc != TypeClass::Unknown)
                ++t.invented;
            continue;
        }
        if (sc == TypeClass::Unknown)
            continue;
        const BoundPair ub = uni.valueBounds(v);
        const BoundPair sb = sub.valueBounds(v);
        if (!table.isSubtype(sb.upper, ub.upper) ||
            !table.isSubtype(ub.lower, sb.lower)) {
            if (++t.violations <= 3) {
                ADD_FAILURE() << "interval of " << printValueRef(m, v)
                              << " escapes: subtype ["
                              << table.toString(sb.lower) << ", "
                              << table.toString(sb.upper) << "] vs unify ["
                              << table.toString(ub.lower) << ", "
                              << table.toString(ub.upper) << "]";
            }
            continue;
        }
        if (sb.upper != ub.upper || sb.lower != ub.lower)
            ++t.narrower;
        if (uc != TypeClass::Precise && sc == TypeClass::Precise)
            ++t.flipped;
    }
    return t;
}

TEST(EngineAgreement, IntervalsNestOnEveryStandardProject)
{
    HybridConfig uni_cfg = HybridConfig::fiOnly();
    uni_cfg.inferEngine = InferEngine::Unify;
    HybridConfig sub_cfg = HybridConfig::fiOnly();
    sub_cfg.inferEngine = InferEngine::Subtype;

    std::size_t narrower_total = 0;
    std::size_t flipped_total = 0;
    for (const ProjectProfile &profile : standardCorpus()) {
        PreparedProject project = prepareProject(profile);
        const InferenceResult uni = project.analyzer->infer(uni_cfg);
        const InferenceResult sub = project.analyzer->infer(sub_cfg);
        const NestingTally t = tallyNesting(project.module(), uni, sub);
        EXPECT_EQ(t.violations, 0u) << profile.name;
        EXPECT_EQ(t.invented, 0u) << profile.name;
        narrower_total += t.narrower;
        flipped_total += t.flipped;
    }
    // The precision ordering must be non-vacuous: somewhere in the
    // corpus the subtype engine is strictly tighter, and somewhere it
    // turns an over-approximated variable precise.
    EXPECT_GT(narrower_total, 0u);
    EXPECT_GT(flipped_total, 0u);
}

/**
 * Interpreter ground truth: a concrete run is the one oracle the
 * static engines cannot argue with. Collect the violation set of an
 * inference result - runtime-dereferenced values the engine inferred
 * precisely numeric, and observed indirect-call targets its FullTypes
 * verdict excludes - and require the subtype engine's set to be a
 * subset of the unifier's on every project (zero NEW violations; on
 * noise-free programs both sets are empty).
 */
std::set<std::uint64_t>
interpViolations(Module &m, const InferenceResult &full,
                 const InterpResult &run)
{
    std::set<std::uint64_t> out;
    TypeTable &table = m.types();
    for (const DerefRecord &d : run.derefs) {
        if (d.faulted || !isTypedValue(m, d.addr))
            continue;
        if (full.valueClass(d.addr) != TypeClass::Precise)
            continue;
        if (table.isNumeric(full.valueBounds(d.addr).upper))
            out.insert(d.addr.raw());
    }
    const IcallAnalysis icalls(m, &full);
    const IcallResult verdicts = icalls.run(IcallDiscipline::FullTypes);
    for (const auto &[site, callee] : run.icallsTaken) {
        const auto it = verdicts.targets.find(site);
        const bool kept =
            it != verdicts.targets.end() &&
            std::find(it->second.begin(), it->second.end(), callee) !=
                it->second.end();
        if (!kept)
            out.insert(0x100000000ull + (std::uint64_t(site.raw()) << 16) +
                       callee.raw());
    }
    return out;
}

TEST(EngineAgreement, SubtypeAddsNoInterpreterViolations)
{
    HybridConfig uni_cfg = HybridConfig::full();
    uni_cfg.inferEngine = InferEngine::Unify;
    HybridConfig sub_cfg = HybridConfig::full();
    sub_cfg.inferEngine = InferEngine::Subtype;

    for (const ProjectProfile &profile : standardCorpus()) {
        // Interpret the natural-CFG module before preprocessing.
        GeneratedProgram prog = generateProgram(profile.config);
        InterpOptions io;
        io.recordTrace = true;
        Interpreter interp(*prog.module, io);
        const InterpResult run = interp.runMain();

        makeAcyclic(*prog.module);
        MantaAnalyzer an(*prog.module, uni_cfg);
        const InferenceResult uni = an.infer(uni_cfg);
        const InferenceResult sub = an.infer(sub_cfg);

        const auto uv = interpViolations(*prog.module, uni, run);
        const auto sv = interpViolations(*prog.module, sub, run);
        for (const std::uint64_t key : sv) {
            EXPECT_TRUE(uv.count(key))
                << profile.name
                << ": subtype engine introduced interpreter violation "
                << key;
        }
    }
}

TEST(EngineAgreement, ModularMatchesWholeProgramUnderSubtype)
{
    // Production refinement on the subtype core's FI environment must
    // equal the one-worklist (whole-program) reference on it too.
    ProjectProfile profile = standardCorpus()[6];  // openssh mix
    PreparedProject project = prepareProject(profile);

    HybridConfig config = HybridConfig::full();
    config.inferEngine = InferEngine::Subtype;
    EXPECT_EQ(diffOverlays(project.analyzer->infer(config),
                           referenceInfer(*project.analyzer, config)),
              "");
}

TEST(EngineAgreement, EngineDiffOracleGreenOnKnownGoodSeeds)
{
    for (std::size_t i = 0; i < 6; ++i) {
        const fuzz::FuzzCase c = fuzz::sampleCase(fuzz::caseSeedFor(11, i));
        const fuzz::CaseResult r = fuzz::runCase(c);
        const auto idx =
            static_cast<std::size_t>(fuzz::OracleId::EngineDiff);
        EXPECT_GT(r.counters.runs[idx], 0u);
        EXPECT_EQ(r.counters.failures[idx], 0u) << "case " << i;
    }
}

// ---- The ablation flip: what the unifier cannot express -----------

class ScenarioTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        prog_ = generatePolyScenarios();
        makeAcyclic(*prog_.module);
    }

    Module &module() { return *prog_.module; }

    FuncId
    fn(const std::string &name) const
    {
        for (std::size_t f = 0; f < prog_.module->numFuncs(); ++f) {
            const FuncId fid(static_cast<FuncId::RawType>(f));
            if (prog_.module->str(prog_.module->func(fid).name) == name)
                return fid;
        }
        return FuncId::invalid();
    }

    /** Result of the direct call to `callee` inside `caller`. */
    ValueId
    callResult(const std::string &caller, const std::string &callee) const
    {
        const Module &m = *prog_.module;
        const FuncId target = fn(callee);
        const FuncId host = fn(caller);
        for (std::size_t i = 0; i < m.numInsts(); ++i) {
            const InstId id(static_cast<InstId::RawType>(i));
            const Instruction &inst = m.inst(id);
            if (inst.op != Opcode::Call || inst.callee != target)
                continue;
            if (m.block(inst.parent).func == host)
                return inst.result;
        }
        return ValueId::invalid();
    }

    GeneratedProgram prog_;
};

TEST_F(ScenarioTest, UnifierMergesThePolymorphicIdentity)
{
    MantaAnalyzer an(module(), HybridConfig::fiOnly());
    HybridConfig cfg = HybridConfig::fiOnly();
    cfg.inferEngine = InferEngine::Unify;
    const InferenceResult uni = an.infer(cfg);

    const ValueId rptr = callResult("driver_ptr", "id");
    const ValueId rint = callResult("driver_int", "id");
    ASSERT_TRUE(rptr.valid());
    ASSERT_TRUE(rint.valid());

    // Unification collapses @id's parameter, return and both call
    // results into one class holding pointer AND integer evidence:
    // both results degrade to over-approximated.
    EXPECT_EQ(uni.valueClass(rptr), TypeClass::Over);
    EXPECT_EQ(uni.valueClass(rint), TypeClass::Over);
}

TEST_F(ScenarioTest, SubtypeEngineSeparatesTheCallSites)
{
    MantaAnalyzer an(module(), HybridConfig::fiOnly());
    HybridConfig uni_cfg = HybridConfig::fiOnly();
    uni_cfg.inferEngine = InferEngine::Unify;
    HybridConfig sub_cfg = HybridConfig::fiOnly();
    sub_cfg.inferEngine = InferEngine::Subtype;
    const InferenceResult uni = an.infer(uni_cfg);
    const InferenceResult sub = an.infer(sub_cfg);
    TypeTable &table = module().types();

    const ValueId rptr = callResult("driver_ptr", "id");
    const ValueId rint = callResult("driver_int", "id");
    ASSERT_TRUE(rptr.valid());
    ASSERT_TRUE(rint.valid());

    // The flip the unifier cannot express: per-call-site instantiation
    // of @id's summary keeps the integer caller precisely integer...
    EXPECT_EQ(sub.valueClass(rint), TypeClass::Precise);
    EXPECT_EQ(sub.valueBounds(rint).upper, table.intTy(64));
    // ...and the pointer caller a pointer. The unifier merges both
    // call results into one class whose upper degrades to the bare
    // register class (join of int and ptr); the subtyping engine keeps
    // the pointer shape, a strictly narrower upper bound.
    const TypeRef sub_up = sub.valueBounds(rptr).upper;
    const TypeRef uni_up = uni.valueBounds(rptr).upper;
    EXPECT_TRUE(table.isPtr(sub_up)) << table.toString(sub_up);
    EXPECT_FALSE(table.isPtr(uni_up)) << table.toString(uni_up);
    EXPECT_TRUE(table.isSubtype(sub_up, uni_up));
    EXPECT_NE(sub_up, uni_up);
}

TEST_F(ScenarioTest, WalkerFieldEvidenceStaysInsideTheTruth)
{
    // The flow-insensitive stage in isolation: that is the subtyping
    // solver's own verdict, before the CS/FS refinement stages trade
    // recall for precision (they may legally commit one-sided
    // singletons, the paper's fsLost bucket).
    MantaAnalyzer an(module(), HybridConfig::fiOnly());
    HybridConfig cfg = HybridConfig::fiOnly();
    cfg.inferEngine = InferEngine::Subtype;
    const InferenceResult sub = an.infer(cfg);
    TypeTable &table = module().types();

    // Every truth-carrying value must be captured: its recorded truth
    // lies inside the engine's interval (recall never drops to an
    // incorrect verdict on the noise-free scenario).
    for (const auto &[v, truth_ty] : prog_.truth.valueTypes) {
        if (!isTypedValue(module(), v))
            continue;
        if (sub.valueClass(v) == TypeClass::Unknown)
            continue;
        const BoundPair bp = sub.valueBounds(v);
        EXPECT_TRUE(table.contains(bp.lower, bp.upper, truth_ty))
            << printValueRef(module(), v) << ": truth "
            << table.toString(truth_ty) << " outside ["
            << table.toString(bp.lower) << ", "
            << table.toString(bp.upper) << "]";
    }
}

TEST_F(ScenarioTest, SubtypeStrictlyBeatsUnifyOnTheScenarioPack)
{
    // Engine-vs-engine on the stage the engines implement (FI): the
    // ablation flip the issue demands. Identity-through-@id values
    // (%doubled, %through) are precisely int under per-call-site
    // instantiation but degrade to over-approximated reg64 under
    // class merging.
    MantaAnalyzer an(module(), HybridConfig::fiOnly());
    HybridConfig uni_cfg = HybridConfig::fiOnly();
    uni_cfg.inferEngine = InferEngine::Unify;
    HybridConfig sub_cfg = HybridConfig::fiOnly();
    sub_cfg.inferEngine = InferEngine::Subtype;

    const InferenceResult uni = an.infer(uni_cfg);
    const InferenceResult sub = an.infer(sub_cfg);
    const TypeEval ue = evalInference(module(), prog_.truth, uni);
    const TypeEval se = evalInference(module(), prog_.truth, sub);

    EXPECT_EQ(se.incorrect, 0u);
    EXPECT_GT(se.preciseCorrect, ue.preciseCorrect);
}

TEST_F(ScenarioTest, SolverStatsRecordPolymorphicInstantiation)
{
    Module &m = module();
    const MemObjects objects(m);
    PointsTo pts(m, objects, true, PtsSolver::Sparse);
    pts.run();
    const HintIndex hints(m, &pts);

    subtype::SubtypeInference inference(m, pts, hints);
    TypeEnv env(m.types());
    const StageStats stage = inference.run(env);
    EXPECT_GT(stage.total(), 0u);

    const subtype::SubtypeStats &stats = inference.stats();
    EXPECT_GT(stats.vars, 0u);
    EXPECT_GT(stats.edges, 0u);
    EXPECT_GT(stats.atoms, 0u);
    // @id and @walk both have usable summaries; @driver_ptr and
    // @driver_int instantiate them at three call sites in total.
    EXPECT_GE(stats.summaries, 2u);
    EXPECT_GE(stats.instantiations, 3u);
}

} // namespace
} // namespace manta
