/**
 * @file
 * Tests for the modular bottom-up engine: callgraph condensation
 * (analysis/scc.h), wave planning (core/modular.h), and the central
 * contract that production refinement (bottom-up SCC waves over the
 * shared summary store) produces the same overlays as the sequential
 * one-worklist reference (reference/refine_ref.h), for the full
 * pipeline and for the fig9 ablation groups. The FlowSummary suite
 * pins the exact flow-sensitive evaluation: no truncation, transitive
 * callee summaries, the relevance filter's pruning, strong updates on
 * call instructions, and memo runs evaluating as batch runs do.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "analysis/acyclic.h"
#include "analysis/callgraph.h"
#include "analysis/scc.h"
#include "core/modular.h"
#include "core/pipeline.h"
#include "core/refine_flow.h"
#include "frontend/corpus.h"
#include "mir/parser.h"
#include "reference/refine_ref.h"
#include "serve/memo.h"

namespace manta {
namespace {

// ---- Condensation -------------------------------------------------

class SccTest : public ::testing::Test
{
  protected:
    void
    load(const std::string &text)
    {
        module_ = parseModuleOrDie(text);
    }

    FuncId
    fn(const std::string &name) const
    {
        for (std::size_t f = 0; f < module_.numFuncs(); ++f) {
            const FuncId fid(static_cast<FuncId::RawType>(f));
            if (module_.str(module_.func(fid).name) == name)
                return fid;
        }
        return FuncId::invalid();
    }

    Module module_;
};

TEST_F(SccTest, CondensesMutualRecursionSelfLoopsAndLeaves)
{
    // a <-> b (mutual recursion), c -> c (self loop), d (leaf),
    // main -> a, c, d.
    load(R"(
func @a() {
entry:
  %r = call.64 @b()
  ret %r
}
func @b() {
entry:
  %r = call.64 @a()
  ret %r
}
func @c() {
entry:
  %r = call.64 @c()
  ret %r
}
func @d() {
entry:
  ret 1:64
}
func @main() {
entry:
  %x = call.64 @a()
  %y = call.64 @c()
  %z = call.64 @d()
  ret %z
}
)");
    const CallGraph graph(module_);
    const SccGraph sccs(graph, module_.numFuncs());

    // {a,b}, {c}, {d}, {main} - plus possible external shells.
    EXPECT_EQ(sccs.sccOf(fn("a")), sccs.sccOf(fn("b")));
    EXPECT_NE(sccs.sccOf(fn("a")), sccs.sccOf(fn("c")));
    EXPECT_NE(sccs.sccOf(fn("a")), sccs.sccOf(fn("main")));

    const std::uint32_t ab = sccs.sccOf(fn("a"));
    EXPECT_TRUE(sccs.isRecursive(ab));
    EXPECT_FALSE(sccs.isTrivial(ab));
    EXPECT_EQ(sccs.members(ab).size(), 2u);

    const std::uint32_t c = sccs.sccOf(fn("c"));
    EXPECT_TRUE(sccs.isRecursive(c));
    EXPECT_FALSE(sccs.isTrivial(c));
    EXPECT_EQ(sccs.members(c).size(), 1u);

    const std::uint32_t d = sccs.sccOf(fn("d"));
    EXPECT_FALSE(sccs.isRecursive(d));
    EXPECT_TRUE(sccs.isTrivial(d));

    // Bottom-up waves: the leaves come first, main strictly after its
    // callees.
    EXPECT_EQ(sccs.waveOf(ab), 0u);
    EXPECT_EQ(sccs.waveOf(c), 0u);
    EXPECT_EQ(sccs.waveOf(d), 0u);
    EXPECT_GT(sccs.waveOf(sccs.sccOf(fn("main"))), 0u);

    // Condensation edges: main's SCC sees three distinct callee SCCs.
    const auto &callees = sccs.calleeSccs(sccs.sccOf(fn("main")));
    EXPECT_EQ(callees.size(), 3u);
    for (const std::uint32_t callee : callees)
        EXPECT_TRUE(std::find(sccs.callerSccs(callee).begin(),
                              sccs.callerSccs(callee).end(),
                              sccs.sccOf(fn("main"))) !=
                    sccs.callerSccs(callee).end());
}

TEST_F(SccTest, DegenerateWholeModuleScc)
{
    // Every function calls the next, cyclically: one SCC, one wave.
    load(R"(
func @a() {
entry:
  %r = call.64 @b()
  ret %r
}
func @b() {
entry:
  %r = call.64 @c()
  ret %r
}
func @c() {
entry:
  %r = call.64 @a()
  ret %r
}
)");
    const CallGraph graph(module_);
    const SccGraph sccs(graph, module_.numFuncs());
    const std::uint32_t scc = sccs.sccOf(fn("a"));
    EXPECT_EQ(sccs.sccOf(fn("b")), scc);
    EXPECT_EQ(sccs.sccOf(fn("c")), scc);
    EXPECT_EQ(sccs.members(scc).size(), 3u);
    EXPECT_TRUE(sccs.isRecursive(scc));
    EXPECT_EQ(sccs.waveOf(scc), 0u);
    EXPECT_TRUE(sccs.calleeSccs(scc).empty());
    // The closure of any member is the whole cycle.
    const auto frontier = sccs.closure({fn("b")});
    EXPECT_EQ(frontier, callClosure(graph, module_, {fn("b")}));
    EXPECT_GE(frontier.size(), 3u);
}

TEST_F(SccTest, ClosureMatchesCallClosure)
{
    // On a generated project the condensation-based frontier must equal
    // the function-graph closure for every singleton dirty set.
    GeneratedProgram prog = buildProject(standardCorpus().front());
    Module &module = *prog.module;
    const CallGraph graph(module);
    const SccGraph sccs(graph, module.numFuncs());
    for (std::size_t f = 0; f < module.numFuncs(); ++f) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        const std::vector<FuncId> dirty = {fid};
        EXPECT_EQ(sccs.closure(dirty), callClosure(graph, module, dirty))
            << "frontier mismatch for function " << f;
    }
}

// ---- Wave planning ------------------------------------------------

TEST(ModularScheduleTest, PlanCoversEveryMissOnceInBottomUpWaves)
{
    GeneratedProgram prog = buildProject(standardCorpus()[1]);
    Module &module = *prog.module;
    makeAcyclic(module);
    const CallGraph graph(module);
    const ModularSchedule schedule(module, graph);

    // Worklist: every value in the module; misses: every other one.
    std::vector<ValueId> candidates;
    for (std::size_t v = 0; v < module.numValues(); ++v)
        candidates.push_back(ValueId(static_cast<ValueId::RawType>(v)));
    std::vector<std::size_t> misses;
    for (std::size_t k = 0; k < candidates.size(); k += 2)
        misses.push_back(k);

    const auto waves = schedule.plan(candidates, misses, 7);
    std::set<std::size_t> seen;
    std::uint32_t last_wave = 0;
    for (const auto &wave : waves) {
        ASSERT_FALSE(wave.packs.empty());
        std::uint32_t wave_id = 0;
        bool first = true;
        for (const auto &pack : wave.packs) {
            ASSERT_FALSE(pack.ks.empty());
            EXPECT_LE(pack.ks.size(), 7u);
            EXPECT_TRUE(std::is_sorted(pack.ks.begin(), pack.ks.end()));
            for (const std::size_t k : pack.ks) {
                EXPECT_TRUE(seen.insert(k).second)
                    << "miss position scheduled twice";
                const std::uint32_t vw = schedule.waveOfValue(
                    candidates[misses[k]].raw());
                if (first) {
                    wave_id = vw;
                    first = false;
                }
                EXPECT_EQ(vw, wave_id)
                    << "pack mixes candidates from different waves";
            }
        }
        EXPECT_GE(wave_id, last_wave) << "waves not bottom-up";
        last_wave = wave_id;
    }
    EXPECT_EQ(seen.size(), misses.size());
}

// ---- Identity against the one-worklist reference ------------------

class ModularIdentityTest : public ::testing::TestWithParam<int>
{};

TEST_P(ModularIdentityTest, OverlaysMatchWholeProgram)
{
    const ProjectProfile profile = standardCorpus()[GetParam()];
    GeneratedProgram prog = buildProject(profile);
    makeAcyclic(*prog.module);
    MantaAnalyzer analyzer(*prog.module);

    // The schedule reorders (and summary-shares) only the read-only
    // walk phase; every refined bound must equal the reference's, which
    // is the whole-program, one-worklist evaluation.
    const InferenceResult result = analyzer.infer(HybridConfig::full());
    EXPECT_EQ(diffOverlays(result,
                           referenceInfer(analyzer, HybridConfig::full())),
              "");

    // And the run really exercised the machinery under test.
    EXPECT_GT(result.profile().sccCount, 0u);
    EXPECT_GT(result.profile().sccWaves, 0u);
}

TEST_P(ModularIdentityTest, AblationGroupsMatchReference)
{
    // fig9's ablation groups take the other stage orders and toggles:
    // FS alone on every variable, FI+FS, and FS before CS.
    const ProjectProfile profile = standardCorpus()[GetParam()];
    GeneratedProgram prog = buildProject(profile);
    makeAcyclic(*prog.module);
    MantaAnalyzer analyzer(*prog.module);
    const std::pair<const char *, HybridConfig> configs[] = {
        {"FS", HybridConfig::fsOnly()},
        {"FI+FS", HybridConfig::fiFs()},
        {"FI+CS+FS fs-first", HybridConfig::fullFsFirst()},
    };
    for (const auto &[label, config] : configs) {
        EXPECT_EQ(diffOverlays(analyzer.infer(config),
                               referenceInfer(analyzer, config)),
                  "")
            << label;
    }
}

// All 14 standard corpus projects: the acceptance bar for the modular
// engine is identity on every one of them.
INSTANTIATE_TEST_SUITE_P(Corpus, ModularIdentityTest,
                         ::testing::Range(0, 14));

// ---- Flat-index size gate -----------------------------------------

TEST(FlatIndexGate, ThresholdIsPinnedAndSmallModulesAreIneligible)
{
    // The flattened hint/CFG indexes are a whole-module pass; below
    // this instruction count their setup costs more than the flat hot
    // loop saves, which is exactly the tiny-module regression the gate
    // exists to prevent. Moving the threshold is a deliberate
    // performance decision - re-measure perfbench's core.fs_ms before
    // editing this pin.
    EXPECT_EQ(FlowRefinement::kFlatIndexMinInsts, 500u);

    Module small = parseModuleOrDie(R"(
func @main() {
entry:
  %a = add 1:64, 2:64
  ret %a
}
)");
    ASSERT_LT(small.numInsts(), FlowRefinement::kFlatIndexMinInsts);
    EXPECT_FALSE(FlowRefinement::flatIndexEligible(small));

    // A standard-corpus project sits far above the gate.
    GeneratedProgram prog = buildProject(standardCorpus()[0]);
    ASSERT_GE(prog.module->numInsts(), FlowRefinement::kFlatIndexMinInsts);
    EXPECT_TRUE(FlowRefinement::flatIndexEligible(*prog.module));
}

TEST(FlatIndexGate, TinyModuleModularRunStillMatchesWholeProgram)
{
    // Below the gate the batch walk answers through the interpreted
    // path; its bounds must still equal the one-worklist reference
    // (the gate is performance-only).
    Module m = parseModuleOrDie(R"(
func @use(%p:64) {
entry:
  %v = load.64 %p
  ret %v
}
func @main() {
entry:
  %slot = alloca 8
  store %slot, 7:64
  %r = call.64 @use(%slot)
  ret %r
}
)");
    ASSERT_FALSE(FlowRefinement::flatIndexEligible(m));
    makeAcyclic(m);
    MantaAnalyzer analyzer(m);
    EXPECT_EQ(diffOverlays(analyzer.infer(HybridConfig::full()),
                           referenceInfer(analyzer, HybridConfig::full())),
              "");
}

// ---- Exact flow-sensitive summaries -------------------------------

FuncId
funcNamed(const Module &m, const std::string &name)
{
    for (std::size_t f = 0; f < m.numFuncs(); ++f) {
        const FuncId fid(static_cast<FuncId::RawType>(f));
        if (m.str(m.func(fid).name) == name)
            return fid;
    }
    return FuncId::invalid();
}

/** First instruction of `fid`'s entry block (an argument's def site). */
InstId
entryInst(const Module &m, FuncId fid)
{
    return m.block(m.func(fid).entry()).insts.front();
}

/** A function of `n` hint-free adds: lifts a module past the flat-index
 *  gate without adding a hint or a call. */
std::string
filler(std::size_t n)
{
    std::string text = "func @filler(%x:64) {\nentry:\n";
    for (std::size_t i = 0; i < n; ++i)
        text += "  %f" + std::to_string(i) + " = add %x, " +
                std::to_string(i + 1) + ":64\n";
    return text + "  ret %x\n}\n";
}

/** The stage alone on `candidates`, as the pipeline would run it. */
FlowRefineResult
runFlow(Module &m, const std::vector<ValueId> &candidates)
{
    MantaAnalyzer analyzer(m);
    TypeEnv env(m.types());
    FnSummaryStore store;
    FlowRefinement fs(m, analyzer.ddg(), analyzer.hints(), env,
                      analyzer.schedule(), store);
    return fs.run(candidates);
}

// f -> g -> h; the only hint on f's parameter's roots is h's load.
const char *kCalleeChain = R"(
func @h(%p:64) {
entry:
  %v = load.64 %p
  ret %v
}
func @g(%p:64) {
entry:
  %r = call.64 @h(%p)
  ret %r
}
)";

TEST(FlowSummary, FfmpegIsExactWithoutTruncation)
{
    // The old per-site walk cut 24 ffmpeg walks off at the step budget;
    // the summaries answer every site in full, bound for bound equal to
    // the uncapped reference.
    const ProjectProfile profile = standardCorpus().back();
    ASSERT_EQ(profile.name, "ffmpeg");
    GeneratedProgram prog = buildProject(profile);
    makeAcyclic(*prog.module);
    MantaAnalyzer analyzer(*prog.module);
    const InferenceResult result = analyzer.infer(HybridConfig::full());
    EXPECT_GT(result.profile().fsWalk.queries, 0u);
    EXPECT_EQ(result.profile().fsWalk.truncated, 0u);
    EXPECT_EQ(diffOverlays(result,
                           referenceInfer(analyzer, HybridConfig::full())),
              "");
}

/** True when two overlays hold the same keys with the same bounds. */
template <typename Overlay>
bool
sameOverlay(const Overlay &a, const Overlay &b)
{
    if (a.size() != b.size())
        return false;
    for (const auto &[key, bp] : a) {
        const auto it = b.find(key);
        if (it == b.end() || it->second.upper != bp.upper ||
                it->second.lower != bp.lower)
            return false;
    }
    return true;
}

TEST(FlowSummary, MemoRunMatchesBatchRun)
{
    // Memo (serve) runs take the batch runs' filtered evaluation: on
    // ffmpeg, past the flat-index gate, a cold memo run answers every
    // site as a batch infer() does, with the same FS work. Recording
    // the filter's reads (replayed hint touches, closure digests) is
    // bookkeeping and counts no steps or queries.
    const ProjectProfile profile = standardCorpus().back();
    ASSERT_EQ(profile.name, "ffmpeg");
    GeneratedProgram prog = buildProject(profile);
    makeAcyclic(*prog.module);
    ASSERT_TRUE(FlowRefinement::flatIndexEligible(*prog.module));
    MantaAnalyzer analyzer(*prog.module);
    const InferenceResult batch = analyzer.infer(HybridConfig::full());
    serve::IncrementalMemo memo;
    const InferenceResult cold = analyzer.infer(HybridConfig::full(), &memo);
    EXPECT_GT(memo.numFlowRecords(), 0u);
    EXPECT_EQ(cold.profile().fsReused, 0u);
    EXPECT_TRUE(sameOverlay(cold.siteOverlay(), batch.siteOverlay()));
    EXPECT_TRUE(sameOverlay(cold.overlay(), batch.overlay()));
    EXPECT_GT(batch.profile().fsWalk.steps, 0u);
    EXPECT_EQ(cold.profile().fsWalk.steps, batch.profile().fsWalk.steps);
    EXPECT_EQ(cold.profile().fsWalk.queries,
              batch.profile().fsWalk.queries);
}

TEST(FlowSummary, TransitiveCalleeHintIsCollected)
{
    // Below the gate (unfiltered) and above it (relevance filter on),
    // f's def site reaches h's load through two callee summaries.
    for (const std::size_t pad : {std::size_t{0}, std::size_t{600}}) {
        Module m = parseModuleOrDie(std::string(kCalleeChain) + R"(
func @f(%q:64) {
entry:
  %r = call.64 @g(%q)
  ret %r
}
)" + (pad > 0 ? filler(pad) : std::string()));
        ASSERT_EQ(FlowRefinement::flatIndexEligible(m), pad > 0);
        makeAcyclic(m);
        const FuncId f = funcNamed(m, "f");
        const ValueId q = m.func(f).params[0];
        const FlowRefineResult out = runFlow(m, {q});
        const auto it = out.siteBounds.find(SiteVar{q, entryInst(m, f)});
        ASSERT_NE(it, out.siteBounds.end()) << pad;
        TypeTable &tt = m.types();
        EXPECT_EQ(it->second.upper, tt.ptr(tt.reg(64))) << pad;
        EXPECT_EQ(it->second.lower, tt.ptr(tt.reg(64))) << pad;
        EXPECT_EQ(out.walk.truncated, 0u);

        MantaAnalyzer analyzer(m);
        EXPECT_EQ(diffOverlays(analyzer.infer(HybridConfig::fsOnly()),
                               referenceInfer(analyzer,
                                              HybridConfig::fsOnly())),
                  "")
            << pad;
    }
}

TEST(FlowSummary, IrrelevantSiblingChainIsSkipped)
{
    // f also calls s1 -> s2, whose 600 hint-bearing muls never meet q's
    // roots. Walking that chain costs at least one step per
    // instruction; the relevance filter skips it, so adding the call
    // costs f's candidate almost nothing - and changes no answer.
    constexpr std::size_t kChain = 600;
    std::string chain = "func @s2(%x:64) {\nentry:\n  %m0 = mul %x, 3:64\n";
    for (std::size_t i = 1; i < kChain; ++i)
        chain += "  %m" + std::to_string(i) + " = mul %m" +
                 std::to_string(i - 1) + ", 3:64\n";
    chain += "  ret %m" + std::to_string(kChain - 1) + "\n}\n";
    chain += R"(
func @s1(%x:64) {
entry:
  %r = call.64 @s2(%x)
  ret %r
}
)";
    auto run = [&](const char *first) {
        Module m = parseModuleOrDie(chain + kCalleeChain +
                                    "func @f(%q:64) {\nentry:\n  " +
                                    first +
                                    "\n  %r = call.64 @g(%q)\n  ret %r\n}\n");
        EXPECT_TRUE(FlowRefinement::flatIndexEligible(m));
        makeAcyclic(m);
        const FuncId f = funcNamed(m, "f");
        const ValueId q = m.func(f).params[0];
        const FlowRefineResult out = runFlow(m, {q});
        std::vector<std::pair<std::uint32_t, std::uint32_t>> bounds;
        for (const InstId s : {entryInst(m, f),
                               m.block(m.func(f).entry()).insts[1]}) {
            const BoundPair &bp = out.siteBounds.at(SiteVar{q, s});
            bounds.emplace_back(bp.upper.raw(), bp.lower.raw());
        }
        return std::make_pair(out.walk.steps, bounds);
    };
    const auto with_chain = run("%s = call.64 @s1(7:64)");
    const auto without = run("%s = add 7:64, 1:64");
    EXPECT_EQ(with_chain.second, without.second);
    ASSERT_GE(with_chain.first, without.first);
    EXPECT_LT(with_chain.first - without.first, kChain)
        << "steps with the sibling call " << with_chain.first
        << ", without " << without.first;
}

TEST(FlowSummary, HintOnCallStopsBeforeTheCallee)
{
    // The same call instruction reveals q (an external signature) and
    // enters g, whose load also meets q's roots. The annotation check
    // comes first, so the path stops at the call: only the external's
    // parameter type is collected. Without the hint, g's load is.
    const std::string text = R"(
func @g(%p:64) {
entry:
  %v = load.64 %p
  ret %v
}
func @u(%s:64) {
entry:
  %n = call.64 @strlen(%s)
  ret %n
}
func @f(%q:64) {
entry:
  %r = call.64 @g(%q)
  ret %r
}
)";
    for (const bool hinted : {false, true}) {
        Module m = parseModuleOrDie(text);
        const FuncId f = funcNamed(m, "f");
        const ExternId strlen_id =
            m.inst(entryInst(m, funcNamed(m, "u"))).external;
        ASSERT_TRUE(strlen_id.valid());
        const InstId call = entryInst(m, f);
        if (hinted)
            m.inst(call).external = strlen_id;
        makeAcyclic(m);
        const ValueId q = m.func(f).params[0];
        const FlowRefineResult out = runFlow(m, {q});
        const BoundPair &bp = out.siteBounds.at(SiteVar{q, call});
        TypeTable &tt = m.types();
        const TypeRef want = hinted ? m.external(strlen_id).paramTypes[0]
                                    : tt.ptr(tt.reg(64));
        EXPECT_EQ(bp.upper, want) << tt.toString(bp.upper);
        EXPECT_EQ(bp.lower, want) << tt.toString(bp.lower);

        MantaAnalyzer analyzer(m);
        EXPECT_EQ(diffOverlays(analyzer.infer(HybridConfig::fsOnly()),
                               referenceInfer(analyzer,
                                              HybridConfig::fsOnly())),
                  "")
            << hinted;
    }
}

} // namespace
} // namespace manta
