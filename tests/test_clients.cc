/**
 * @file
 * Tests for the type-assisted clients: indirect-call pruning
 * (Section 5.1), DDG pruning (Section 5.2, Table 2) and the five
 * source-sink checkers (Section 5.3), including the paper's false
 * positive mechanisms and their type-based suppression.
 */
#include <gtest/gtest.h>

#include "analysis/acyclic.h"
#include "clients/checkers.h"
#include "clients/ddg_prune.h"
#include "clients/icall.h"
#include "core/pipeline.h"
#include "eval/harness.h"
#include "frontend/corpus.h"
#include "mir/parser.h"

namespace manta {
namespace {

class ClientTest : public ::testing::Test
{
  protected:
    void
    load(const std::string &text,
         HybridConfig config = HybridConfig::full())
    {
        module_ = parseModuleOrDie(text);
        makeAcyclic(module_);
        analyzer_ = std::make_unique<MantaAnalyzer>(module_, config);
        result_ = std::make_unique<InferenceResult>(analyzer_->infer());
    }

    std::vector<BugReport>
    detect(CheckerKind kind, bool use_types)
    {
        if (use_types)
            pruneInfeasibleDeps(analyzer_->ddg(), *result_);
        const BugDetector detector(*analyzer_,
                                   use_types ? result_.get() : nullptr);
        auto reports = detector.run(kind);
        analyzer_->ddg().resetPruning();
        return reports;
    }

    FuncId fn(const std::string &name) { return module_.findFunc(name); }

    Module module_;
    std::unique_ptr<MantaAnalyzer> analyzer_;
    std::unique_ptr<InferenceResult> result_;
};

// ---------------------------------------------------------------------
// Indirect-call analysis.
// ---------------------------------------------------------------------

// Figure 3(c): an indirect call passing an int64 argument and one
// passing char*; targets take int64, char*, or two args.
const char *kIcallProgram = R"(
string @msg "hi"
func @takes_int(%x:64) {
entry:
  %r = call.32 @print_int(%x)
  ret
}
func @takes_str(%p:64) {
entry:
  %r = call.32 @print_str(%p)
  ret
}
func @takes_two(%a:64, %b:64) {
entry:
  ret
}
func @main(%sel:64) {
entry:
  %fi = copy @takes_int
  %fs = copy @takes_str
  %ft = copy @takes_two
  %r1 = call.32 @icaller_int(%fi)
  %r2 = call.32 @icaller_str(%fs)
  ret
}
func @icaller_int(%t:64) {
entry:
  %v = copy 1234:64
  %n = mul %v, 2:64
  icall.32 %t(%n)
  ret
}
func @icaller_str(%t:64) {
entry:
  icall.32 %t(@msg)
  ret
}
)";

TEST_F(ClientTest, ArgCountDisciplineKeepsAllUnaryTargets)
{
    load(kIcallProgram);
    const IcallAnalysis analysis(module_, result_.get());
    const IcallResult r = analysis.run(IcallDiscipline::ArgCount);
    ASSERT_EQ(r.numSites(), 2u);
    // Both unary functions are feasible everywhere; the binary one is
    // excluded by the argument count rule.
    for (const auto &[site, targets] : r.targets) {
        EXPECT_EQ(targets.size(), 2u);
        for (const FuncId t : targets)
            EXPECT_NE(t, fn("takes_two"));
    }
}

TEST_F(ClientTest, FullTypesPrunesIncompatibleTargets)
{
    load(kIcallProgram);
    const IcallAnalysis analysis(module_, result_.get());
    const IcallResult r = analysis.run(IcallDiscipline::FullTypes);
    ASSERT_EQ(r.numSites(), 2u);
    // The int-argument call site must exclude takes_str and vice versa.
    for (const auto &[site, targets] : r.targets) {
        ASSERT_EQ(targets.size(), 1u) << "site " << site.raw();
    }
    EXPECT_LT(r.aict(), 2.0);
}

TEST_F(ClientTest, AictAveragesTargetCounts)
{
    load(kIcallProgram);
    const IcallAnalysis analysis(module_, result_.get());
    const IcallResult count = analysis.run(IcallDiscipline::ArgCount);
    EXPECT_DOUBLE_EQ(count.aict(), 2.0);
    const IcallResult full = analysis.run(IcallDiscipline::FullTypes);
    EXPECT_DOUBLE_EQ(full.aict(), 1.0);
}

TEST_F(ClientTest, WidthDisciplineBetweenCountAndTypes)
{
    load(kIcallProgram);
    const IcallAnalysis analysis(module_, result_.get());
    const double count_aict =
        analysis.run(IcallDiscipline::ArgCount).aict();
    const double width_aict =
        analysis.run(IcallDiscipline::ArgCountWidth).aict();
    const double type_aict =
        analysis.run(IcallDiscipline::FullTypes).aict();
    EXPECT_LE(type_aict, width_aict);
    EXPECT_LE(width_aict, count_aict);
}

// The per-(site, target) feasibility test IcallAnalysis ran before it
// tabulated bounds per callee and per site, kept as the reference the
// tables must reproduce.
bool
perPairFeasible(const Module &module, const InferenceResult *inference,
                InstId site, FuncId target, IcallDiscipline discipline)
{
    const Instruction &icall = module.inst(site);
    const Function &fn = module.func(target);
    const std::span<const ValueId> icall_ops = module.operands(icall);
    const std::size_t num_args = icall_ops.size() - 1;
    if (num_args < fn.params.size())
        return false;
    if (discipline == IcallDiscipline::ArgCount)
        return true;
    if (discipline == IcallDiscipline::ArgCountWidth) {
        for (std::size_t i = 0; i < fn.params.size(); ++i) {
            if (module.value(icall_ops[i + 1]).width <
                module.value(fn.params[i]).width) {
                return false;
            }
        }
        return true;
    }
    if (inference == nullptr)
        return true;
    const TypeTable &tt = module.types();
    const InstId entry_inst =
        fn.entry().valid() && !module.block(fn.entry()).insts.empty()
            ? module.block(fn.entry()).insts.front()
            : InstId::invalid();
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
        const BoundPair arg_bp = inference->siteBounds(icall_ops[i + 1], site);
        const BoundPair par_bp =
            inference->siteBounds(fn.params[i], entry_inst);
        if (!tt.isSubtype(par_bp.lower, arg_bp.upper))
            return false;
    }
    if (icall.result.valid()) {
        for (const BlockId bid : fn.blocks) {
            const BasicBlock &bb = module.block(bid);
            if (bb.insts.empty())
                continue;
            const Instruction &term = module.inst(bb.insts.back());
            if (term.op != Opcode::Ret || term.numOperands() == 0)
                continue;
            const BoundPair ret_f = inference->siteBounds(
                module.operand(term, 0), bb.insts.back());
            const BoundPair ret_s = inference->siteBounds(icall.result, site);
            if (!tt.isSubtype(ret_s.lower, ret_f.upper))
                return false;
        }
    }
    return true;
}

TEST_F(ClientTest, IcallTablesMatchPerPairReference)
{
    std::size_t sites = 0;
    std::size_t pruned = 0;
    for (const ProjectProfile &profile : standardCorpus()) {
        PreparedProject project = prepareProject(profile);
        const InferenceResult inference = project.analyzer->infer();
        const Module &module = project.module();
        const auto candidates = module.addressTakenFuncs();
        const InferenceResult *const legs[] = {&inference, nullptr};
        for (const InferenceResult *types : legs) {
            const IcallAnalysis analysis(project.module(), types);
            for (const IcallDiscipline discipline :
                 {IcallDiscipline::ArgCount, IcallDiscipline::ArgCountWidth,
                  IcallDiscipline::FullTypes}) {
                IcallResult reference;
                for (const InstId site : analysis.icallSites()) {
                    std::vector<FuncId> feasible;
                    for (const FuncId target : candidates) {
                        if (perPairFeasible(module, types, site, target,
                                            discipline)) {
                            feasible.push_back(target);
                        }
                    }
                    pruned += candidates.size() - feasible.size();
                    reference.targets.emplace(site, std::move(feasible));
                }
                sites += reference.numSites();
                EXPECT_EQ(analysis.run(discipline).targets,
                          reference.targets)
                    << profile.name << (types ? " typed" : " untyped")
                    << " discipline " << static_cast<int>(discipline);
            }
        }
    }
    // Non-vacuous: there are sites, and some candidates are rejected.
    EXPECT_GT(sites, 0u);
    EXPECT_GT(pruned, 0u);
}

// ---------------------------------------------------------------------
// DDG pruning (Table 2).
// ---------------------------------------------------------------------

TEST_F(ClientTest, PrunesOffsetToPointerDependency)
{
    // p = base + offset, p dereferenced: the offset -> p edge must go.
    load(R"(
func @f(%offset:64) {
entry:
  %base = call.64 @malloc(64:64)
  %n = mul %offset, 8:64
  %p = add %base, %n
  %v = load.8 %p
  ret
}
)");
    const PruneStats stats = pruneInfeasibleDeps(analyzer_->ddg(), *result_);
    EXPECT_GT(stats.examined, 0u);
    EXPECT_GE(stats.pruned, 1u);
    // The pruned edge is n -> p, not base -> p.
    const Ddg &ddg = analyzer_->ddg();
    for (std::uint32_t i = 0; i < ddg.numEdges(); ++i) {
        const auto &e = ddg.edge(i);
        if (e.kind != DepKind::PtrArith)
            continue;
        const std::string from(module_.str(module_.value(e.from).name));
        if (from == "base") {
            EXPECT_FALSE(e.pruned);
        }
        if (from == "n") {
            EXPECT_TRUE(e.pruned);
        }
    }
}

TEST_F(ClientTest, KeepsAmbiguousArithDependencies)
{
    // Without type evidence neither operand can be pruned.
    load(R"(
func @f(%a:64, %b:64) {
entry:
  %c = add %a, %b
  ret %c
}
)");
    const PruneStats stats = pruneInfeasibleDeps(analyzer_->ddg(), *result_);
    EXPECT_EQ(stats.pruned, 0u);
}

// ---------------------------------------------------------------------
// Checkers.
// ---------------------------------------------------------------------

TEST_F(ClientTest, NpdDetectsNullFlowToDeref)
{
    load(R"(
func @f(%c:1) {
entry:
  %slot = alloca 8
  %h = call.64 @malloc(8:64)
  br %c, some, none
some:
  store %slot, %h
  jmp use
none:
  store %slot, 0:64
  jmp use
use:
  %p = load.64 %slot
  %v = load.32 %p
  ret
}
)");
    const auto reports = detect(CheckerKind::NPD, true);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].kind, CheckerKind::NPD);
}

TEST_F(ClientTest, NpdFalsePositiveKilledByPruning)
{
    // Figure 4(c): zero flows only as an arithmetic offset; with type
    // pruning the offset -> pointer edge disappears.
    load(R"(
func @use(%pchr:64) {
entry:
  %v = load.8 %pchr
  ret
}
func @f(%c:1, %s:64) {
entry:
  %str = call.64 @nvram_get(@key)
  br %c, a, b
a:
  %off1 = copy 4:64
  jmp go
b:
  %off2 = copy 0:64
  jmp go
go:
  %off = phi [%off1, a], [%off2, b]
  %q = mul %off, 1:64
  %p = add %str, %q
  %r = call.32 @use(%p)
  ret
}
string @key "k"
)");
    const auto with_types = detect(CheckerKind::NPD, true);
    EXPECT_TRUE(with_types.empty());
    const auto without = detect(CheckerKind::NPD, false);
    EXPECT_FALSE(without.empty());
}

TEST_F(ClientTest, RsaDetectsReturnedStackAddress)
{
    load(R"(
func @bad() {
entry:
  %buf = alloca 32
  ret %buf
}
func @good() {
entry:
  %h = call.64 @malloc(32:64)
  ret %h
}
)");
    const auto reports = detect(CheckerKind::RSA, true);
    ASSERT_EQ(reports.size(), 1u);
    const Instruction &sink = module_.inst(reports[0].sinkSite);
    EXPECT_EQ(module_.block(sink.parent).func, fn("bad"));
}

TEST_F(ClientTest, UafDetectsUseAfterFree)
{
    load(R"(
func @f() {
entry:
  %h = call.64 @malloc(16:64)
  %v1 = load.32 %h
  call @free(%h)
  %v2 = load.32 %h
  ret
}
)");
    const auto reports = detect(CheckerKind::UAF, true);
    ASSERT_EQ(reports.size(), 1u);
    // The reported use must be the post-free load, not the first one.
    const Instruction &sink = module_.inst(reports[0].sinkSite);
    EXPECT_EQ(sink.op, Opcode::Load);
}

TEST_F(ClientTest, UafRespectsControlFlowOrder)
{
    // Use strictly before the free: no report.
    load(R"(
func @f() {
entry:
  %h = call.64 @malloc(16:64)
  %v1 = load.32 %h
  call @free(%h)
  ret
}
)");
    EXPECT_TRUE(detect(CheckerKind::UAF, true).empty());
}

TEST_F(ClientTest, UafDetectsDoubleFree)
{
    load(R"(
func @f() {
entry:
  %h = call.64 @malloc(16:64)
  call @free(%h)
  call @free(%h)
  ret
}
)");
    const auto reports = detect(CheckerKind::UAF, true);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_NE(reports[0].message.find("double free"), std::string::npos);
}

TEST_F(ClientTest, CmiDetectsTaintToSystem)
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
    const auto reports = detect(CheckerKind::CMI, true);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].kind, CheckerKind::CMI);
}

TEST_F(ClientTest, CmiSanitizedByAtoiSuppressedWithTypes)
{
    // The SaTC false-positive class: the tainted string is converted
    // to an integer before any command is built.
    load(R"(
string @key "port"
string @fmt "restart %d"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %n = call.32 @atoi(%t)
  %buf = alloca 64
  %r = call.32 @snprintf(%buf, 64:64, @fmt)
  %w = zext.64 %n
  %r2 = call.32 @system(%buf)
  ret
}
)");
    // With types: atoi's precisely-numeric result is a barrier, and
    // the command buffer content never derives from the taint.
    const auto with_types = detect(CheckerKind::CMI, true);
    EXPECT_TRUE(with_types.empty());
}

TEST_F(ClientTest, CmiThroughBufferCopy)
{
    load(R"(
string @key "cmd"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %buf = alloca 128
  %r = call.64 @strcpy(%buf, %t)
  %r2 = call.32 @system(%buf)
  ret
}
)");
    const auto reports = detect(CheckerKind::CMI, true);
    ASSERT_GE(reports.size(), 1u);
}

TEST_F(ClientTest, BofDetectsUnboundedTaintedCopy)
{
    load(R"(
string @key "name"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %buf = alloca 16
  %r = call.64 @strcpy(%buf, %t)
  ret
}
)");
    const auto reports = detect(CheckerKind::BOF, true);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_NE(reports[0].message.find("unbounded"), std::string::npos);
}

TEST_F(ClientTest, BofBoundedCopyWithinSizeIsClean)
{
    load(R"(
string @key "name"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %buf = alloca 64
  %r = call.64 @strncpy(%buf, %t, 32:64)
  ret
}
)");
    EXPECT_TRUE(detect(CheckerKind::BOF, true).empty());
}

TEST_F(ClientTest, BofOversizedMemcpyDetected)
{
    load(R"(
string @key "blob"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %buf = alloca 16
  %r = call.64 @memcpy(%buf, %t, 256:64)
  ret
}
)");
    const auto reports = detect(CheckerKind::BOF, true);
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_NE(reports[0].message.find("exceeds"), std::string::npos);
}

// ---------------------------------------------------------------------
// False-positive barriers: for each paper checker, a case where the
// untyped ablation fires and type assistance suppresses the report.
// ---------------------------------------------------------------------

TEST_F(ClientTest, RsaPointerDifferenceSuppressedWithTypes)
{
    // A pointer difference derived from a stack address flows to the
    // return. Type pruning cuts both PtrArith edges at the Sub (the
    // result is numeric, the operands are pointers), so the typed
    // slice never reaches the return; the untyped slice does.
    load(R"(
func @f() {
entry:
  %buf = alloca 32
  store %buf, 7:64
  %mid = add %buf, 16:64
  %v = load.8 %mid
  %len = sub %mid, %buf
  %r = call.32 @print_int(%len)
  ret %len
}
)");
    const auto with_types = detect(CheckerKind::RSA, true);
    EXPECT_TRUE(with_types.empty());
    const auto without = detect(CheckerKind::RSA, false);
    EXPECT_FALSE(without.empty());
}

TEST_F(ClientTest, UafOffsetReuseSuppressedWithTypes)
{
    // The freed pointer only contributes a numeric offset to the later
    // dereference (ptr - ptr, then base + offset). Typed pruning cuts
    // the pointer -> difference edge; untyped slicing follows it from
    // the free all the way to the load.
    load(R"(
func @f() {
entry:
  %h = call.64 @malloc(16:64)
  %g = call.64 @malloc(16:64)
  %off = sub %h, %g
  %r = call.32 @print_int(%off)
  call @free(%h)
  %p = add %g, %off
  %v = load.8 %p
  ret
}
)");
    const auto with_types = detect(CheckerKind::UAF, true);
    EXPECT_TRUE(with_types.empty());
    const auto without = detect(CheckerKind::UAF, false);
    EXPECT_FALSE(without.empty());
}

TEST_F(ClientTest, BofSanitizedOffsetSuppressedWithTypes)
{
    // Tainted data is converted to an integer (atoi barrier) before it
    // shapes the copied pointer. With types the precisely-numeric
    // conversion stops the slice; without types the taint "reaches"
    // the unbounded copy's source operand.
    load(R"(
string @key "idx"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %n = call.32 @atoi(%t)
  %w = zext.64 %n
  %src = call.64 @malloc(64:64)
  %p = add %src, %w
  %buf = alloca 16
  %r = call.64 @strcpy(%buf, %p)
  ret
}
)");
    const auto with_types = detect(CheckerKind::BOF, true);
    EXPECT_TRUE(with_types.empty());
    const auto without = detect(CheckerKind::BOF, false);
    EXPECT_FALSE(without.empty());
}

TEST_F(ClientTest, CmiSanitizedOffsetFlipsWithoutTypes)
{
    // Ablation flip for the atoi barrier: the same program is clean
    // with types and reported without them.
    load(R"(
string @key "port"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %n = call.32 @atoi(%t)
  %w = zext.64 %n
  %cmd = call.64 @malloc(64:64)
  %p = add %cmd, %w
  %r = call.32 @system(%p)
  ret
}
)");
    const auto with_types = detect(CheckerKind::CMI, true);
    EXPECT_TRUE(with_types.empty());
    const auto without = detect(CheckerKind::CMI, false);
    EXPECT_FALSE(without.empty());
}

TEST_F(ClientTest, ReportsAreDeterministicallySorted)
{
    // ReportSet::take() orders by (kind, sourceSite, sinkSite), so two
    // identical detector runs produce identical report lists.
    load(R"(
string @key "cmd"
func @f() {
entry:
  %t = call.64 @nvram_get(@key)
  %r = call.32 @system(%t)
  %buf = alloca 8
  %r2 = call.64 @strcpy(%buf, %t)
  %t2 = call.64 @nvram_get(@key)
  %r3 = call.32 @system(%t2)
  ret
}
)");
    const BugDetector detector(*analyzer_, result_.get());
    const auto first = detector.runAll();
    const auto second = detector.runAll();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].kind, second[i].kind);
        EXPECT_EQ(first[i].sourceSite, second[i].sourceSite);
        EXPECT_EQ(first[i].sinkSite, second[i].sinkSite);
        if (i > 0) {
            const bool ordered =
                first[i - 1].kind < first[i].kind ||
                (first[i - 1].kind == first[i].kind &&
                 (first[i - 1].sourceSite.raw() <
                      first[i].sourceSite.raw() ||
                  (first[i - 1].sourceSite == first[i].sourceSite &&
                   first[i - 1].sinkSite.raw() <
                       first[i].sinkSite.raw())));
            EXPECT_TRUE(ordered) << "report " << i << " out of order";
        }
    }
}

TEST_F(ClientTest, RunAllAggregatesCheckers)
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
    const BugDetector detector(*analyzer_, result_.get());
    const auto all = detector.runAll();
    EXPECT_GE(all.size(), 2u); // CMI + BOF at least
}

TEST_F(ClientTest, TaintThroughIndirectCallOnlyWhenTargetFeasible)
{
    // Taint passes through an indirect call; the type-based analysis
    // keeps the string-taking target, so the report persists, but the
    // integer-only path cannot produce one.
    load(R"(
string @key "cmd"
func @run_cmd(%c:64) {
entry:
  %r = call.32 @system(%c)
  ret
}
func @main() {
entry:
  %t = call.64 @nvram_get(@key)
  %f = copy @run_cmd
  icall.32 %f(%t)
  ret
}
)");
    const auto with_types = detect(CheckerKind::CMI, true);
    EXPECT_EQ(with_types.size(), 1u);
    const auto without = detect(CheckerKind::CMI, false);
    EXPECT_EQ(without.size(), 1u);
}

} // namespace
} // namespace manta
