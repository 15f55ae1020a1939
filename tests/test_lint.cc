/**
 * @file
 * Tests for the lint framework (src/lint/, docs/LINT.md): the
 * checker table and engine plumbing, SARIF serialization, bit-identical
 * parity between the paper checker adapters and the pre-framework
 * BugDetector, true-positive and type-assisted-suppression cases for
 * each of the five new checkers, and campaign determinism across
 * worker counts.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "analysis/acyclic.h"
#include "eval/harness.h"
#include "frontend/corpus.h"
#include "lint/campaign.h"
#include "lint/checker.h"
#include "lint/run.h"
#include "mir/parser.h"

namespace manta {
namespace {

class LintTest : public ::testing::Test
{
  protected:
    void
    load(const std::string &text)
    {
        module_ = parseModuleOrDie(text);
        makeAcyclic(module_);
        analyzer_ =
            std::make_unique<MantaAnalyzer>(module_, HybridConfig::full());
        result_ = std::make_unique<InferenceResult>(analyzer_->infer());
    }

    /** Run one checker (or all when `checker` is empty). */
    lint::LintResult
    lintOne(const std::string &checker, bool use_types,
            lint::LintOptions opts = {})
    {
        if (!checker.empty())
            opts.enabled = {checker};
        return lint::runLint(*analyzer_,
                             use_types ? result_.get() : nullptr, nullptr,
                             opts);
    }

    Module module_;
    std::unique_ptr<MantaAnalyzer> analyzer_;
    std::unique_ptr<InferenceResult> result_;
};

// ---------------------------------------------------------------------
// Checker table and engine plumbing.
// ---------------------------------------------------------------------

TEST(LintRegistry, ThirteenBuiltinCheckersSortedById)
{
    std::vector<std::string> ids;
    for (const lint::CheckerFactory make : lint::builtinCheckers)
        ids.push_back(make()->id());
    ASSERT_EQ(ids.size(), 13u);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    const std::vector<std::string> expected = {
        "addr-leak", "bof",  "cmi",          "double-free",
        "format-string", "icall-mismatch", "npd",  "rsa",
        "sign-confusion", "taint-deref",    "uaf",
        "uninit-stack", "width-trunc"};
    std::vector<std::string> sorted_expected = expected;
    std::sort(sorted_expected.begin(), sorted_expected.end());
    EXPECT_EQ(ids, sorted_expected);
}

TEST(LintEngine, DeduplicatesAndSortsDeterministically)
{
    lint::DiagnosticEngine engine;
    lint::Diagnostic b;
    b.checker = "zzz";
    b.primary.inst = InstId(7);
    b.primary.func = "f";
    b.message = "later";
    lint::Diagnostic a;
    a.checker = "aaa";
    a.primary.inst = InstId(3);
    a.primary.func = "f";
    a.message = "earlier";
    engine.report(b);
    engine.report(a);
    engine.report(a);  // Duplicate finding: dropped.
    const auto diags = engine.take();
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].checker, "aaa");
    EXPECT_EQ(diags[1].checker, "zzz");
}

TEST(LintEngine, DisableAndEnableOnlyFilter)
{
    lint::DiagnosticEngine engine;
    engine.enableOnly({"npd", "uaf"});
    engine.disable("uaf");
    EXPECT_TRUE(engine.checkerEnabled("npd"));
    EXPECT_FALSE(engine.checkerEnabled("uaf"));   // Disabled wins.
    EXPECT_FALSE(engine.checkerEnabled("bof"));   // Not in enableOnly.

    lint::Diagnostic d;
    d.checker = "bof";
    d.primary.inst = InstId(1);
    d.message = "m";
    engine.report(d);
    EXPECT_TRUE(engine.take().empty());
}

TEST_F(LintTest, BaselineSuppressesKnownFindings)
{
    load(R"(
string @key "cmd"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %r = call.32 @system(%t)
  %buf = alloca 8
  %r2 = call.64 @strcpy(%buf, %t)
  ret
}
)");
    const lint::LintResult first = lintOne("", true);
    ASSERT_GE(first.diagnostics.size(), 2u);
    for (const auto &d : first.diagnostics)
        EXPECT_FALSE(d.fingerprint.empty());

    lint::LintOptions opts;
    opts.baselineText =
        lint::DiagnosticEngine::writeBaseline(first.diagnostics);
    const lint::LintResult second = lintOne("", true, opts);
    EXPECT_TRUE(second.diagnostics.empty());
    std::size_t suppressed = 0;
    for (const auto &stats : second.perChecker)
        suppressed += stats.baselineSuppressed;
    EXPECT_EQ(suppressed, first.diagnostics.size());
}

TEST_F(LintTest, SarifLogHasRequiredShape)
{
    load(R"(
string @key "cmd"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %r = call.32 @system(%t)
  ret
}
)");
    const lint::LintResult result = lintOne("", true);
    ASSERT_FALSE(result.diagnostics.empty());
    EXPECT_EQ(result.rules.size(), 13u);
    lint::SarifRun run;
    run.artifact = "unit.mir";
    run.diagnostics = result.diagnostics;
    const std::string log = lint::sarifLog({run}, result.rules);
    for (const char *needle :
         {"\"$schema\"", "\"version\": \"2.1.0\"", "\"manta-lint\"",
          "\"ruleId\"", "\"partialFingerprints\"", "\"startLine\"",
          "\"logicalLocations\"", "\"unit.mir\""}) {
        EXPECT_NE(log.find(needle), std::string::npos)
            << "missing " << needle;
    }
    // Pseudo-line is the 1-based instruction id.
    const InstId primary = result.diagnostics[0].primary.inst;
    const std::string line =
        "\"startLine\": " + std::to_string(primary.raw() + 1);
    EXPECT_NE(log.find(line), std::string::npos);
}

TEST(LintSarif, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(lint::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---------------------------------------------------------------------
// Paper parity: the five adapters reproduce BugDetector bit for bit.
// ---------------------------------------------------------------------

using ReportTuple =
    std::tuple<std::string, std::uint32_t, std::uint32_t, std::uint32_t>;

const char *
paperIdOf(CheckerKind kind)
{
    switch (kind) {
      case CheckerKind::NPD: return "npd";
      case CheckerKind::RSA: return "rsa";
      case CheckerKind::UAF: return "uaf";
      case CheckerKind::CMI: return "cmi";
      case CheckerKind::BOF: return "bof";
    }
    return "";
}

TEST(LintPaperParity, FrameworkMatchesBugDetectorOnGeneratedCorpus)
{
    const std::vector<std::string> paper_ids = {"bof", "cmi", "npd",
                                                "rsa", "uaf"};
    for (std::uint64_t seed : {11u, 12u, 13u}) {
        ProjectProfile profile;
        profile.name = "parity-" + std::to_string(seed);
        profile.kloc = 1;
        profile.config.seed = seed;
        profile.config.numFunctions = 10;
        profile.config.realBugRate = 0.08;
        profile.config.decoyRate = 0.06;
        profile.config.benignCopyRate = 0.04;
        profile.config.benignSystemRate = 0.04;
        PreparedProject project = prepareProject(profile);
        InferenceResult inference = project.analyzer->infer();

        // Typed leg, then the no-type ablation (ArgCount icall edges,
        // no pruning, no barriers).
        const InferenceResult *const legs[] = {&inference, nullptr};
        for (const InferenceResult *types : legs) {
            // Pre-framework Table 5 pipeline.
            std::vector<ReportTuple> detector_tuples;
            for (const BugReport &r : detectBugs(project, types)) {
                detector_tuples.emplace_back(paperIdOf(r.kind),
                                             r.sourceSite.raw(),
                                             r.sinkSite.raw(), r.sinkTag);
            }

            // The same five checkers through the framework.
            lint::LintOptions opts;
            opts.enabled = paper_ids;
            const lint::LintResult lr = lint::runLint(
                *project.analyzer, types, &project.truth(), opts);
            std::vector<ReportTuple> framework_tuples;
            for (const lint::Diagnostic &d : lr.diagnostics) {
                ASSERT_EQ(d.related.size(), 1u);
                framework_tuples.emplace_back(d.checker,
                                              d.related[0].inst.raw(),
                                              d.primary.inst.raw(),
                                              d.srcTag);
            }

            std::sort(detector_tuples.begin(), detector_tuples.end());
            std::sort(framework_tuples.begin(), framework_tuples.end());
            EXPECT_EQ(detector_tuples, framework_tuples)
                << "seed " << seed << (types ? " typed" : " untyped")
                << ": framework diverged from detector";
        }
    }
}

TEST_F(LintTest, ContextSharesTheDetectorWorld)
{
    // One context builds the slice world once: the paper adapters'
    // detector and every other checker see the very same slicer,
    // order oracle, instruction index and icall target sets.
    load(R"(
func @f(%x:64) {
entry:
  %v = load.8 %x
  ret
}
)");
    for (const bool use_types : {true, false}) {
        const lint::LintContext ctx(*analyzer_,
                                    use_types ? result_.get() : nullptr,
                                    nullptr, /*taintNoType=*/false);
        const BugDetector &detector = ctx.paperDetector();
        EXPECT_EQ(&detector.slicer(), &ctx.slicer());
        EXPECT_EQ(&detector.icallTargets(), &ctx.icallTargets());
        EXPECT_EQ(&detector.order(), &ctx.order());
        EXPECT_EQ(&detector.instIndex(), &ctx.instIndex());
        EXPECT_EQ(detector.useTypes(), use_types);
        EXPECT_EQ(ctx.useTypes(), use_types);
    }
}

// ---------------------------------------------------------------------
// LintIndex.
// ---------------------------------------------------------------------

// The module scans uninit-stack ran once per stack load before the
// LintIndex existed, kept as the reference the index must reproduce.
std::vector<InstId>
scanStoresInto(const lint::LintContext &ctx, const Loc &target)
{
    std::vector<InstId> stores;
    Module &module = ctx.module();
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module.inst(iid);
        if (inst.op != Opcode::Store)
            continue;
        for (const Loc &loc : ctx.pts().locs(module.operand(inst, 0))) {
            if (Loc::mayOverlap(loc, target)) {
                stores.push_back(iid);
                break;
            }
        }
    }
    return stores;
}

bool
scanAddressEscapes(const lint::LintContext &ctx, ObjectId obj)
{
    Module &module = ctx.module();
    const auto points_at = [&](ValueId v) {
        for (const Loc &loc : ctx.pts().locs(v)) {
            if (loc.obj == obj)
                return true;
        }
        return false;
    };
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const Instruction &inst = module.inst(iid);
        if (inst.isCall() || inst.op == Opcode::Ret) {
            for (const ValueId arg : module.operands(inst)) {
                if (points_at(arg))
                    return true;
            }
        } else if (inst.op == Opcode::Store &&
                   points_at(module.operand(inst, 1))) {
            return true;
        }
    }
    return false;
}

/** The index's stores that may write `target`, one entry per store. */
std::vector<InstId>
indexedStoresInto(const lint::LintIndex &index, const Loc &target)
{
    std::vector<InstId> stores;
    for (const lint::StoreRef &ref : index.storesTo(target.obj)) {
        if (Loc::mayOverlap(ref.loc, target) &&
            (stores.empty() || stores.back() != ref.store)) {
            stores.push_back(ref.store);
        }
    }
    return stores;
}

/**
 * Hold the index to the brute-force scans at every load of one stack
 * slot in the analyzed module; returns the number of loads checked
 * and adds those whose slot escapes to `escaped`.
 */
std::size_t
expectIndexMatchesScan(MantaAnalyzer &analyzer, const GroundTruth *truth,
                       const std::string &name, std::size_t &escaped)
{
    const lint::LintContext ctx(analyzer, nullptr, truth,
                                /*taintNoType=*/false);
    Module &module = ctx.module();
    std::size_t loads = 0;
    for (std::size_t i = 0; i < module.numInsts(); ++i) {
        const Instruction &inst =
            module.inst(InstId(static_cast<InstId::RawType>(i)));
        if (inst.op != Opcode::Load)
            continue;
        const LocSet &addr = ctx.pts().locs(module.operand(inst, 0));
        if (addr.size() != 1)
            continue;
        const Loc target = *addr.begin();
        if (ctx.memObjects().object(target.obj).kind != ObjKind::Stack)
            continue;
        ++loads;
        EXPECT_EQ(indexedStoresInto(ctx.index(), target),
                  scanStoresInto(ctx, target))
            << name << " load " << i;
        const bool scan_escaped = scanAddressEscapes(ctx, target.obj);
        EXPECT_EQ(ctx.index().escaped(target.obj), scan_escaped)
            << name << " load " << i;
        escaped += scan_escaped ? 1 : 0;
    }
    return loads;
}

TEST(LintIndex, MatchesBruteForceScan)
{
    // The generated corpora's stack slots escape only through call
    // arguments, so a hand-written module covers the other two escape
    // routes (a returned slot, a slot stored as a payload) and a store
    // whose address may write two slots.
    Module module = parseModuleOrDie(R"(
func @returned() {
entry:
  %r = alloca 8
  %rv = load.64 %r
  ret %r
}
func @stored() {
entry:
  %cell = alloca 8
  %s = alloca 8
  store %cell, %s
  %sv = load.64 %s
  ret
}
func @merged(%c:1) {
entry:
  %a = alloca 8
  %b = alloca 8
  br %c, l, r
l:
  jmp j
r:
  jmp j
j:
  %p = phi [%a, l], [%b, r]
  store %p, 1:64
  %av = load.64 %a
  %bv = load.64 %b
  ret
}
)");
    makeAcyclic(module);
    MantaAnalyzer analyzer(module, HybridConfig::full());
    std::size_t escaped = 0;
    EXPECT_EQ(expectIndexMatchesScan(analyzer, nullptr, "hand", escaped),
              4u);
    EXPECT_EQ(escaped, 2u);

    std::vector<ProjectProfile> profiles =
        lint::campaignCorpus(lint::LintCampaignOptions{});
    for (ProjectProfile &profile : standardCorpus())
        profiles.push_back(std::move(profile));
    std::size_t loads = 0;
    for (const ProjectProfile &profile : profiles) {
        PreparedProject project = prepareProject(profile);
        loads += expectIndexMatchesScan(*project.analyzer, &project.truth(),
                                        profile.name, escaped);
    }
    // Non-vacuous: both branches of the escape test are exercised.
    EXPECT_GT(loads, escaped);
    EXPECT_GT(escaped, 2u);
}

// ---------------------------------------------------------------------
// width-trunc.
// ---------------------------------------------------------------------

TEST_F(LintTest, WidthTruncDetectsNarrowedAddress)
{
    load(R"(
func @f(%x:64) {
entry:
  %t = trunc.16 %x
  %w = zext.64 %t
  %v = load.8 %w
  ret
}
)");
    const auto typed = lintOne("width-trunc", true);
    ASSERT_EQ(typed.diagnostics.size(), 1u);
    EXPECT_EQ(typed.diagnostics[0].checker, "width-trunc");
    EXPECT_NE(typed.diagnostics[0].message.find("64 to 16"),
              std::string::npos);
    const auto untyped = lintOne("width-trunc", false);
    EXPECT_EQ(untyped.diagnostics.size(), 1u);
}

TEST_F(LintTest, WidthTruncSuppressedByOffsetPruning)
{
    // The truncated value is only an offset; Table 2 pruning cuts the
    // offset -> pointer edge so the typed slice never reaches the
    // dereference, while the untyped ablation still reports.
    load(R"(
func @f(%x:64) {
entry:
  %base = call.64 @malloc(64:64)
  %t = trunc.16 %x
  %w = zext.64 %t
  %m = mul %w, 1:64
  %p = add %base, %m
  %v = load.8 %p
  ret
}
)");
    const auto typed = lintOne("width-trunc", true);
    EXPECT_TRUE(typed.diagnostics.empty());
    const auto untyped = lintOne("width-trunc", false);
    EXPECT_FALSE(untyped.diagnostics.empty());
}

// ---------------------------------------------------------------------
// sign-confusion.
// ---------------------------------------------------------------------

TEST_F(LintTest, SignConfusionDetectsUnreachableSextCompare)
{
    load(R"(
func @f(%x:32) {
entry:
  %s = sext.64 %x
  %c = icmp.lt %s, 3000000000:64
  br %c, yes, no
yes:
  ret
no:
  ret
}
)");
    const auto typed = lintOne("sign-confusion", true);
    ASSERT_EQ(typed.diagnostics.size(), 1u);
    EXPECT_NE(typed.diagnostics[0].message.find("sign-extended"),
              std::string::npos);
    const auto untyped = lintOne("sign-confusion", false);
    EXPECT_EQ(untyped.diagnostics.size(), 1u);
}

TEST_F(LintTest, SignConfusionPointerErrorIdiomSuppressedWithTypes)
{
    // Ordering a pointer against -1 (the error-constant idiom of
    // Section 6.4): typed mode knows the operand is a pointer and
    // stays quiet; the no-type ablation flags the signedness hazard.
    load(R"(
func @f() {
entry:
  %p = call.64 @malloc(8:64)
  %v = load.8 %p
  %c = icmp.gt %p, -1:64
  br %c, yes, no
yes:
  ret
no:
  ret
}
)");
    const auto typed = lintOne("sign-confusion", true);
    EXPECT_TRUE(typed.diagnostics.empty());
    const auto untyped = lintOne("sign-confusion", false);
    ASSERT_EQ(untyped.diagnostics.size(), 1u);
    EXPECT_NE(untyped.diagnostics[0].message.find("-1"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// uninit-stack.
// ---------------------------------------------------------------------

TEST_F(LintTest, UninitStackDetectsNeverWrittenSlot)
{
    load(R"(
func @f() {
entry:
  %slot = alloca 8
  %v = load.64 %slot
  ret
}
)");
    const auto typed = lintOne("uninit-stack", true);
    ASSERT_EQ(typed.diagnostics.size(), 1u);
    EXPECT_NE(typed.diagnostics[0].message.find("never written"),
              std::string::npos);
    ASSERT_EQ(typed.diagnostics[0].related.size(), 1u);
    EXPECT_EQ(typed.diagnostics[0].related[0].role, "stack slot");
    const auto untyped = lintOne("uninit-stack", false);
    EXPECT_EQ(untyped.diagnostics.size(), 1u);
}

TEST_F(LintTest, UninitStackCommittedFieldSuppressedWithTypes)
{
    // A join-path read of a slot initialized on only one arm: the
    // field-sensitive unification commits the slot's field (the load
    // feeds a numeric-typed call argument), so typed mode downgrades
    // the partial-initialization pattern; the ablation reports it.
    load(R"(
func @f(%c:1) {
entry:
  %slot = alloca 8
  br %c, w, s
w:
  store %slot, 7:64
  jmp j
s:
  jmp j
j:
  %v = load.64 %slot
  %r = call.32 @print_int(%v)
  ret
}
)");
    const auto typed = lintOne("uninit-stack", true);
    EXPECT_TRUE(typed.diagnostics.empty());
    const auto untyped = lintOne("uninit-stack", false);
    ASSERT_EQ(untyped.diagnostics.size(), 1u);
    EXPECT_NE(untyped.diagnostics[0].message.find("no "
                                                  "store reaches"),
              std::string::npos);
}

TEST_F(LintTest, UninitStackEscapedSlotStaysQuiet)
{
    // The slot's address is passed to a callee that may initialize it.
    load(R"(
func @init(%p:64) {
entry:
  store %p, 1:64
  ret
}
func @f() {
entry:
  %slot = alloca 8
  %r = call.32 @init(%slot)
  %v = load.64 %slot
  ret
}
)");
    EXPECT_TRUE(lintOne("uninit-stack", true).diagnostics.empty());
    EXPECT_TRUE(lintOne("uninit-stack", false).diagnostics.empty());
}

// ---------------------------------------------------------------------
// double-free.
// ---------------------------------------------------------------------

TEST_F(LintTest, DoubleFreeDetectsMustAliasRelease)
{
    load(R"(
func @f() {
entry:
  %h = call.64 @malloc(16:64)
  %p = copy %h
  call @free(%h)
  call @free(%p)
  ret
}
)");
    const auto typed = lintOne("double-free", true);
    ASSERT_EQ(typed.diagnostics.size(), 1u);
    EXPECT_EQ(typed.diagnostics[0].severity, lint::Severity::Error);
    ASSERT_EQ(typed.diagnostics[0].related.size(), 1u);
    EXPECT_EQ(typed.diagnostics[0].related[0].role, "first free");
    const auto untyped = lintOne("double-free", false);
    EXPECT_EQ(untyped.diagnostics.size(), 1u);
}

TEST_F(LintTest, DoubleFreeMayAliasSuppressedWithTypes)
{
    // The second freed pointer may be either allocation (loaded from a
    // branch-merged slot): typed mode demands must-alias and stays
    // quiet; the untyped may-overlap rule reports its documented FP.
    load(R"(
func @f(%c:1) {
entry:
  %slot = alloca 8
  %h1 = call.64 @malloc(16:64)
  %h2 = call.64 @malloc(16:64)
  br %c, a, b
a:
  store %slot, %h1
  jmp j
b:
  store %slot, %h2
  jmp j
j:
  %p = load.64 %slot
  call @free(%h1)
  call @free(%p)
  ret
}
)");
    const auto typed = lintOne("double-free", true);
    EXPECT_TRUE(typed.diagnostics.empty());
    const auto untyped = lintOne("double-free", false);
    EXPECT_FALSE(untyped.diagnostics.empty());
}

// ---------------------------------------------------------------------
// icall-mismatch.
// ---------------------------------------------------------------------

TEST_F(LintTest, IcallMismatchDetectsArityGap)
{
    // No address-taken target accepts zero arguments.
    load(R"(
func @takes_one(%a:64) {
entry:
  %r = call.32 @print_int(%a)
  ret
}
func @main() {
entry:
  %f = copy @takes_one
  icall.32 %f()
  ret
}
)");
    const auto typed = lintOne("icall-mismatch", true);
    ASSERT_EQ(typed.diagnostics.size(), 1u);
    EXPECT_NE(typed.diagnostics[0].message.find("no feasible"),
              std::string::npos);
    const auto untyped = lintOne("icall-mismatch", false);
    EXPECT_EQ(untyped.diagnostics.size(), 1u);
}

TEST_F(LintTest, IcallMismatchSurplusArgsSuppressedWithTypes)
{
    // A two-argument call to a one-parameter candidate: exact-arity
    // matching (no types) flags it, while FullTypes models the
    // calling-convention rule that surplus arguments are ignored.
    load(R"(
func @takes_one(%a:64) {
entry:
  %r = call.32 @print_int(%a)
  ret
}
func @main() {
entry:
  %f = copy @takes_one
  icall.32 %f(1:64, 2:64)
  ret
}
)");
    const auto typed = lintOne("icall-mismatch", true);
    EXPECT_TRUE(typed.diagnostics.empty());
    const auto untyped = lintOne("icall-mismatch", false);
    EXPECT_EQ(untyped.diagnostics.size(), 1u);
}

// ---------------------------------------------------------------------
// Framework integration.
// ---------------------------------------------------------------------

TEST_F(LintTest, LintSecondsCreditedToProfile)
{
    load(R"(
func @f() {
entry:
  %slot = alloca 8
  %v = load.64 %slot
  ret
}
)");
    const double before = result_->profile().lintSeconds;
    const lint::LintResult result = lintOne("", true);
    EXPECT_GE(result.seconds, 0.0);
    EXPECT_GE(result_->profile().lintSeconds, before);
    EXPECT_EQ(result.perChecker.size(), 13u);
    for (std::size_t i = 1; i < result.perChecker.size(); ++i)
        EXPECT_LT(result.perChecker[i - 1].id, result.perChecker[i].id);
}

TEST_F(LintTest, RepeatedRunsAreIdentical)
{
    load(R"(
string @key "cmd"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %r = call.32 @system(%t)
  %slot = alloca 8
  %v = load.64 %slot
  ret
}
)");
    const auto first = lintOne("", true);
    const auto second = lintOne("", true);
    EXPECT_EQ(lint::DiagnosticEngine::renderText(first.diagnostics),
              lint::DiagnosticEngine::renderText(second.diagnostics));
}

// ---------------------------------------------------------------------
// Campaign determinism (the MANTA_JOBS byte-identity guarantee).
// ---------------------------------------------------------------------

TEST(LintCampaign, ArtifactsByteIdenticalAcrossWorkerCounts)
{
    lint::LintCampaignOptions options;
    options.seed = 5;
    options.count = 4;
    options.stable = true;

    options.jobs = 1;
    const lint::LintCampaignResult serial = runLintCampaign(options);
    options.jobs = 8;
    const lint::LintCampaignResult parallel = runLintCampaign(options);

    EXPECT_EQ(serial.textReport, parallel.textReport);
    EXPECT_EQ(serial.sarif, parallel.sarif);
    EXPECT_EQ(serial.json, parallel.json);
    EXPECT_EQ(serial.totalDiagnostics, parallel.totalDiagnostics);

    ASSERT_EQ(serial.checkers.size(), 13u);
    for (const auto &summary : serial.checkers) {
        EXPECT_GE(summary.precision(), 0.0);
        EXPECT_LE(summary.precision(), 1.0);
        EXPECT_GE(summary.recall(), 0.0);
        EXPECT_LE(summary.recall(), 1.0);
    }
    EXPECT_NE(serial.json.find("\"precision\""), std::string::npos);
    EXPECT_NE(serial.json.find("\"recall\""), std::string::npos);
}

// The satellite-2 regression: the Table 5 pipeline itself (detector
// reports over a generated project) is independent of harness job
// count, because ReportSet orders deterministically and per-project
// work is isolated.
TEST(LintCampaign, DetectorReportsIndependentOfJobCount)
{
    ProjectProfile profile;
    profile.name = "jobs-identity";
    profile.kloc = 1;
    profile.config.seed = 21;
    profile.config.numFunctions = 10;
    profile.config.realBugRate = 0.08;
    profile.config.decoyRate = 0.06;

    auto run_once = [&profile]() {
        PreparedProject project = prepareProject(profile);
        InferenceResult inference = project.analyzer->infer();
        std::vector<ReportTuple> tuples;
        for (const BugReport &r : detectBugs(project, &inference)) {
            tuples.emplace_back(paperIdOf(r.kind), r.sourceSite.raw(),
                                r.sinkSite.raw(), r.sinkTag);
        }
        return tuples;
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace manta
