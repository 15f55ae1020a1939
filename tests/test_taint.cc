/**
 * @file
 * Tests for the interprocedural taint engine (src/taint/) and its
 * checker family: seeded-flow detection on the fixed leak scenario
 * pack, the sanitizer kill, the type gate (barrier + endpoint
 * suppression) and its MANTA_TAINT_NOTYPE ablation flip under both
 * inference engines, per-function summary correctness, equality of the
 * fact table with the one-worklist (whole-program) reference fixpoint
 * and stability under print/parse roundtrips (run at MANTA_JOBS=1 and
 * 8 by the ctest matrix), byte-identical SARIF across inference
 * engines, and the campaign-level precision contract of the taint
 * family.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/acyclic.h"
#include "frontend/generator.h"
#include "lint/campaign.h"
#include "lint/run.h"
#include "mir/parser.h"
#include "mir/printer.h"
#include "reference/taint_ref.h"
#include "taint/taint.h"

namespace manta {
namespace {

/** One analyzed copy of the leak scenario pack. */
struct World
{
    GeneratedProgram program;
    std::unique_ptr<MantaAnalyzer> analyzer;
    std::unique_ptr<InferenceResult> inference;

    Module &module() { return *program.module; }
};

World
makeWorld(InferEngine engine)
{
    World w;
    w.program = generateLeakScenarios();
    makeAcyclic(*w.program.module);
    HybridConfig cfg = HybridConfig::full();
    cfg.inferEngine = engine;
    w.analyzer = std::make_unique<MantaAnalyzer>(*w.program.module, cfg);
    w.inference =
        std::make_unique<InferenceResult>(w.analyzer->infer(cfg));
    return w;
}

taint::TaintOptions
baseOptions()
{
    // Explicit options: the tests must not depend on MANTA_TAINT* in
    // the ambient environment.
    taint::TaintOptions opts;
    opts.useTypes = true;
    opts.sanitizers = true;
    opts.maxFactsPerValue = 256;
    return opts;
}

const char *
checkerName(TaintChecker checker)
{
    switch (checker) {
    case TaintChecker::AddrLeak:
        return "addr-leak";
    case TaintChecker::TaintDeref:
        return "taint-deref";
    case TaintChecker::FormatString:
        return "format-string";
    }
    return "";
}

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

/** Flows (any suppression state) whose sink sits in `func`. */
std::size_t
flowsInFunction(const World &w, const taint::TaintResult &result,
                const std::string &func, bool include_suppressed)
{
    const Module &m = *w.program.module;
    const FuncId fid = funcNamed(m, func);
    std::size_t count = 0;
    for (const taint::TaintFlow &flow : result.flows) {
        if (!include_suppressed && flow.suppressed)
            continue;
        if (m.block(m.inst(flow.sinkInst).parent).func == fid)
            ++count;
    }
    return count;
}

// ---------------------------------------------------------------------
// Seeded flows on the scenario pack.
// ---------------------------------------------------------------------

TEST(TaintScenarios, TypedRunMatchesSeeds)
{
    World w = makeWorld(InferEngine::Unify);
    const taint::TaintResult result =
        taint::runTaint(*w.analyzer, w.inference.get(), baseOptions());

    std::map<std::string, std::set<std::uint32_t>> reported;
    for (const taint::TaintFlow &flow : result.flows) {
        if (!flow.suppressed) {
            reported[taint::flowChecker(flow)].insert(
                w.module().inst(flow.sinkInst).srcTag);
        }
    }
    ASSERT_FALSE(w.program.truth.taintSeeds.empty());
    for (const TaintSeed &seed : w.program.truth.taintSeeds) {
        const bool hit =
            reported[checkerName(seed.checker)].count(seed.tag) != 0;
        EXPECT_EQ(hit, seed.real)
            << checkerName(seed.checker) << " tag " << seed.tag;
    }
}

TEST(TaintScenarios, EndpointGateRecordsSuppressedLeakDecoy)
{
    // The leak decoy's flow reaches its sink (strlen's result carries
    // the StackAddr fact it was introduced with) but the endpoint gate
    // marks it suppressed: the printed interval commits to numeric.
    World w = makeWorld(InferEngine::Unify);
    const taint::TaintResult result =
        taint::runTaint(*w.analyzer, w.inference.get(), baseOptions());
    EXPECT_EQ(flowsInFunction(w, result, "leak_decoy", true), 1u);
    EXPECT_EQ(flowsInFunction(w, result, "leak_decoy", false), 0u);
    EXPECT_GT(result.stats.suppressed, 0u);
}

TEST(TaintScenarios, BarrierStopsNumericMiddles)
{
    // The deref and format decoys never reach their sinks with types:
    // the strlen-derived middle is numeric-committed, and facts do not
    // propagate out of it.
    World w = makeWorld(InferEngine::Unify);
    const taint::TaintResult result =
        taint::runTaint(*w.analyzer, w.inference.get(), baseOptions());
    EXPECT_EQ(flowsInFunction(w, result, "deref_decoy", true), 0u);
    EXPECT_EQ(flowsInFunction(w, result, "fmt_decoy", true), 0u);
    EXPECT_GT(result.stats.barrierValues, 0u);
}

TEST(TaintScenarios, SanitizerKillsAtoiFlows)
{
    World w = makeWorld(InferEngine::Unify);

    taint::TaintOptions opts = baseOptions();
    const taint::TaintResult typed =
        taint::runTaint(*w.analyzer, w.inference.get(), opts);
    EXPECT_EQ(flowsInFunction(w, typed, "sanitized", true), 0u);

    // The kill is independent of the type gate: still no flow with the
    // ablation on.
    opts.useTypes = false;
    const taint::TaintResult untyped =
        taint::runTaint(*w.analyzer, w.inference.get(), opts);
    EXPECT_EQ(flowsInFunction(w, untyped, "sanitized", true), 0u);
    EXPECT_GT(untyped.stats.sanitizedEdges, 0u);

    // Switching sanitizers off (and the barrier, which would otherwise
    // stop the numeric atoi result) lets Input reach the dereference.
    opts.sanitizers = false;
    const taint::TaintResult unsanitized =
        taint::runTaint(*w.analyzer, w.inference.get(), opts);
    EXPECT_GT(flowsInFunction(w, unsanitized, "sanitized", true), 0u);
}

// ---------------------------------------------------------------------
// The ablation flip, on both inference engines.
// ---------------------------------------------------------------------

class TaintAblationTest : public ::testing::TestWithParam<InferEngine>
{};

TEST_P(TaintAblationTest, NoTypeLosesPrecisionOnSeededDecoys)
{
    World w = makeWorld(GetParam());

    taint::TaintOptions opts = baseOptions();
    const taint::TaintResult typed =
        taint::runTaint(*w.analyzer, w.inference.get(), opts);
    opts.useTypes = false;
    const taint::TaintResult untyped =
        taint::runTaint(*w.analyzer, w.inference.get(), opts);

    std::size_t decoys_reported_typed = 0;
    std::size_t decoys_reported_untyped = 0;
    std::size_t reals_reported_typed = 0;
    std::size_t reals_seeded = 0;
    std::size_t decoys_seeded = 0;
    const auto tags = [&](const taint::TaintResult &r) {
        std::set<std::uint32_t> t;
        for (const taint::TaintFlow &flow : r.flows) {
            if (!flow.suppressed)
                t.insert(w.module().inst(flow.sinkInst).srcTag);
        }
        return t;
    };
    const std::set<std::uint32_t> typed_tags = tags(typed);
    const std::set<std::uint32_t> untyped_tags = tags(untyped);
    for (const TaintSeed &seed : w.program.truth.taintSeeds) {
        if (seed.real) {
            ++reals_seeded;
            reals_reported_typed += typed_tags.count(seed.tag);
            // Recall never drops with types: every real seeded flow
            // survives the gate.
            EXPECT_TRUE(untyped_tags.count(seed.tag)) << seed.tag;
        } else {
            ++decoys_seeded;
            decoys_reported_typed += typed_tags.count(seed.tag);
            decoys_reported_untyped += untyped_tags.count(seed.tag);
        }
    }
    // Typed: all reals, no decoys. Untyped: every decoy becomes a
    // false positive -- the measurable precision loss the ablation
    // exists to demonstrate, on either inference engine.
    ASSERT_GT(reals_seeded, 0u);
    ASSERT_GT(decoys_seeded, 0u);
    EXPECT_EQ(decoys_reported_typed, 0u);
    EXPECT_EQ(reals_reported_typed, reals_seeded);
    EXPECT_EQ(decoys_reported_untyped, decoys_seeded);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, TaintAblationTest,
                         ::testing::Values(InferEngine::Unify,
                                           InferEngine::Subtype),
                         [](const auto &info) {
                             return info.param == InferEngine::Unify
                                        ? "Unify"
                                        : "Subtype";
                         });

// ---------------------------------------------------------------------
// Summaries.
// ---------------------------------------------------------------------

TEST(TaintSummaries, InterproceduralParamToRet)
{
    World w = makeWorld(InferEngine::Unify);
    const taint::TaintResult result =
        taint::runTaint(*w.analyzer, w.inference.get(), baseOptions());

    const FuncId pass = funcNamed(w.module(), "pass");
    ASSERT_TRUE(pass.valid());
    ASSERT_LT(pass.raw(), result.summaries.size());
    const taint::FnTaintSummary &summary = result.summaries[pass.raw()];
    EXPECT_EQ(summary.paramToRet & 1u, 1u);
    // The StackAddr fact from @leak_chain's buffer reaches @pass's
    // return at the fixpoint.
    EXPECT_FALSE(summary.retFacts.empty());

    // And the interprocedural leak itself is reported.
    EXPECT_EQ(flowsInFunction(w, result, "leak_chain", false), 1u);
}

// ---------------------------------------------------------------------
// Identity: the reference fixpoint, jobs (via the ctest env matrix),
// roundtrip, engines. canonicalText is the identity artifact.
// ---------------------------------------------------------------------

TEST(TaintIdentityTest, ModularMatchesWholeProgram)
{
    // The wave schedule's fact table equals the one-worklist reference,
    // with and without the type barrier; flows and summary return facts
    // are derived from it.
    World w = makeWorld(InferEngine::Unify);
    taint::TaintOptions opts = baseOptions();
    for (const bool use_types : {true, false}) {
        opts.useTypes = use_types;
        const taint::TaintResult modular =
            taint::runTaint(*w.analyzer, w.inference.get(), opts);
        EXPECT_TRUE(modular.facts ==
                    referenceTaintFacts(*w.analyzer, w.inference.get(),
                                        opts))
            << "useTypes=" << use_types;
    }
}

TEST(TaintIdentityTest, ModularMatchesWholeProgramOnGeneratedCorpus)
{
    // A salted random program exercises call graphs, recursion and
    // memory edges far beyond the scenario pack.
    GenConfig config;
    config.seed = 99;
    config.numFunctions = 14;
    config.leakRate = 0.25;
    config.leakDecoyRate = 0.25;
    config.realBugRate = 0.05;
    GeneratedProgram program = generateProgram(config);
    makeAcyclic(*program.module);
    MantaAnalyzer analyzer(*program.module, HybridConfig::full());
    const InferenceResult inference = analyzer.infer();

    const taint::TaintOptions opts = baseOptions();
    const taint::TaintResult modular =
        taint::runTaint(analyzer, &inference, opts);
    EXPECT_GT(modular.stats.flows + modular.stats.suppressed, 0u);
    EXPECT_TRUE(modular.facts ==
                referenceTaintFacts(analyzer, &inference, opts));
}

TEST(TaintIdentityTest, RoundtripStable)
{
    World w = makeWorld(InferEngine::Unify);
    const taint::TaintResult before =
        taint::runTaint(*w.analyzer, w.inference.get(), baseOptions());
    const std::string text = printModule(w.module());

    Module reparsed = parseModuleOrDie(text);
    MantaAnalyzer analyzer(reparsed, HybridConfig::full());
    const InferenceResult inference = analyzer.infer();
    const taint::TaintResult after =
        taint::runTaint(analyzer, &inference, baseOptions());
    EXPECT_EQ(before.canonicalText(w.module()),
              after.canonicalText(reparsed));
}

TEST(TaintIdentityTest, CanonicalTextIdenticalAcrossInferEngines)
{
    // Propagation ignores engine-specific DDG pruning, and the
    // scenario pack's endpoints are engine-robust (pointer-typed reals,
    // signature-committed numeric decoys), so even the gated artifact
    // is byte-identical between unify and subtype.
    World uni = makeWorld(InferEngine::Unify);
    World sub = makeWorld(InferEngine::Subtype);
    const taint::TaintResult u =
        taint::runTaint(*uni.analyzer, uni.inference.get(), baseOptions());
    const taint::TaintResult s =
        taint::runTaint(*sub.analyzer, sub.inference.get(), baseOptions());
    EXPECT_EQ(u.canonicalText(uni.module()), s.canonicalText(sub.module()));
}

// ---------------------------------------------------------------------
// SARIF identity across inference engines.
// ---------------------------------------------------------------------

TEST(TaintSarifTest, ByteIdenticalAcrossInferEngines)
{
    const auto sarif_for = [](InferEngine engine) {
        World w = makeWorld(engine);
        lint::LintOptions opts;
        opts.enabled = {"addr-leak", "taint-deref", "format-string"};
        opts.taintNoTypeOverride = 0;
        const lint::LintResult lint = lint::runLint(
            *w.analyzer, w.inference.get(), &w.program.truth, opts);
        std::vector<lint::SarifRun> runs(1);
        runs[0].artifact = "leak-scenarios.mir";
        runs[0].diagnostics = lint.diagnostics;
        return lint::sarifLog(runs, lint.rules);
    };
    const std::string uni = sarif_for(InferEngine::Unify);
    const std::string sub = sarif_for(InferEngine::Subtype);
    EXPECT_FALSE(uni.empty());
    EXPECT_EQ(uni, sub);
    // The taint family actually reported something, with flow steps.
    EXPECT_NE(uni.find("\"ruleId\": \"addr-leak\""), std::string::npos);
    EXPECT_NE(uni.find("flow source"), std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign-level contract: the taint family scores, and the ablation
// drops its precision.
// ---------------------------------------------------------------------

TEST(TaintCampaign, TaintFamilyPrecisionAndAblationFlip)
{
    lint::LintCampaignOptions options;
    options.count = 8;
    options.stable = true;

    options.taintNoTypeOverride = 0;
    const lint::LintCampaignResult typed = lint::runLintCampaign(options);
    options.taintNoTypeOverride = 1;
    const lint::LintCampaignResult ablated = lint::runLintCampaign(options);

    const auto family = [](const lint::LintCampaignResult &result) {
        std::size_t diags = 0, matched = 0, reference = 0;
        for (const lint::LintCheckerSummary &summary : result.checkers) {
            if (summary.id == "addr-leak" || summary.id == "taint-deref" ||
                summary.id == "format-string") {
                diags += summary.diagnostics;
                matched += summary.matched;
                reference += summary.referenceDiagnostics;
            }
        }
        return std::make_tuple(diags, matched, reference);
    };
    const auto [typed_diags, typed_matched, typed_ref] = family(typed);
    const auto [ablated_diags, ablated_matched, ablated_ref] =
        family(ablated);

    // The corpus seeds taint flows, and typed precision clears the
    // 0.9 bar (BENCH_lint.json commits the full-size run).
    ASSERT_GT(typed_diags, 0u);
    ASSERT_GT(typed_ref, 0u);
    const double typed_precision =
        static_cast<double>(typed_matched) /
        static_cast<double>(typed_diags);
    EXPECT_GE(typed_precision, 0.9);

    // The ablation reports strictly more (the decoys) while matching
    // the same typed reference: measurable precision loss.
    ASSERT_GT(ablated_diags, typed_diags);
    const double ablated_precision =
        static_cast<double>(ablated_matched) /
        static_cast<double>(ablated_diags);
    EXPECT_LT(ablated_precision, typed_precision);
}

} // namespace
} // namespace manta
