/**
 * @file
 * Unit tests for the production walker's building blocks (context
 * interning, epoch-stamped scratch, memoized summaries) and for its
 * agreement with the reference walker (reference/refine_ref.h) on the
 * CFL edge cases: maxStack capping, budget truncation mid-query,
 * call-argument exits under a bound context, and empty-stack ascent
 * past the starting frame.
 */
#include <gtest/gtest.h>

#include "analysis/acyclic.h"
#include "core/ddg_walk.h"
#include "core/pipeline.h"
#include "frontend/generator.h"
#include "mir/parser.h"
#include "reference/refine_ref.h"

namespace manta {
namespace {

TEST(CtxInternerTest, HashConsesStacks)
{
    CtxInterner interner;
    const InstId site1(7), site2(9);
    const std::uint32_t a = interner.push(CtxInterner::kEmpty, site1);
    const std::uint32_t b = interner.push(CtxInterner::kEmpty, site1);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, CtxInterner::kEmpty);

    const std::uint32_t c = interner.push(a, site2);
    EXPECT_NE(c, a);
    EXPECT_EQ(interner.pop(c), a);
    EXPECT_EQ(interner.pop(a), CtxInterner::kEmpty);
    EXPECT_EQ(interner.top(c), site2.raw());
    EXPECT_EQ(interner.top(CtxInterner::kEmpty), CtxInterner::kNoSite);
    EXPECT_EQ(interner.depth(c), 2u);
    EXPECT_EQ(interner.depth(CtxInterner::kEmpty), 0u);

    // Re-interning an identical stack bottom-up lands on the same id.
    EXPECT_EQ(interner.push(interner.push(CtxInterner::kEmpty, site1),
                            site2),
              c);
}

TEST(EpochScratchTest, FlagsQueriesPastMarkFrontierAnswerFalse)
{
    // Regression: flow refinement probes hint-root ids against a
    // candidate's root set, and those ids are not bounded by what was
    // marked. Reading past the frontier must answer false, not read
    // out of bounds (this was a heap-buffer-overflow caught by the
    // walk_diff oracle under ASan).
    EpochFlags flags;
    flags.ensure(4);
    flags.newEpoch();
    EXPECT_TRUE(flags.mark(2));
    EXPECT_FALSE(flags.mark(2));
    EXPECT_TRUE(flags.marked(2));
    EXPECT_FALSE(flags.marked(3));
    EXPECT_FALSE(flags.marked(100000));
    EXPECT_TRUE(flags.mark(100000));
    EXPECT_TRUE(flags.marked(100000));
    flags.newEpoch();
    EXPECT_FALSE(flags.marked(2));
    EXPECT_FALSE(flags.marked(100000));
}

TEST(EpochScratchTest, VisitedSeparatesEpochsAndTops)
{
    EpochVisited visited;
    visited.ensure(3);
    visited.newEpoch();
    EXPECT_TRUE(visited.insert(1, 7));
    EXPECT_FALSE(visited.insert(1, 7));
    EXPECT_TRUE(visited.insert(1, 8));  // same node, different ctx top
    EXPECT_FALSE(visited.insert(1, 8));
    EXPECT_TRUE(visited.insert(2, 7));
    visited.newEpoch();  // no clearing, marks just expire
    EXPECT_TRUE(visited.insert(1, 7));
    EXPECT_TRUE(visited.insert(1, 8));
}

class DdgWalkTest : public ::testing::Test
{
  protected:
    void
    load(const std::string &text)
    {
        module_ = parseModuleOrDie(text);
        makeAcyclic(module_);
        analyzer_ =
            std::make_unique<MantaAnalyzer>(module_, HybridConfig::full());
        env_ = std::make_unique<TypeEnv>(module_.types());
        FlowInsensitiveInference fi(module_, analyzer_->pts(),
                                    analyzer_->hints());
        fi.run(*env_);
    }

    ValueId
    val(const std::string &name) const
    {
        for (std::size_t v = 0; v < module_.numValues(); ++v) {
            const ValueId vid(static_cast<ValueId::RawType>(v));
            if (module_.str(module_.value(vid).name) == name)
                return vid;
        }
        return ValueId::invalid();
    }

    DdgWalker
    walker(WalkBudget budget = {})
    {
        return DdgWalker(analyzer_->ddg(), env_.get(), module_.types(),
                         budget);
    }

    RefWalker
    reference(WalkBudget budget = {})
    {
        return RefWalker(module_, analyzer_->ddg(), analyzer_->hints(),
                         env_.get(), module_.types(), budget);
    }

    /** Production and reference, element for element, on every value. */
    void
    expectEnginesAgree(WalkBudget budget = {})
    {
        DdgWalker fast = walker(budget);
        const RefWalker ref = reference(budget);
        for (std::size_t v = 0; v < module_.numValues(); ++v) {
            const ValueId vid(static_cast<ValueId::RawType>(v));
            const ValueKind kind = module_.value(vid).kind;
            if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
                continue;
            EXPECT_EQ(fast.findRoots(vid), ref.findRootsRef(vid))
                << "roots differ for value " << v;
            EXPECT_EQ(fast.collectTypes(vid, analyzer_->hints()),
                      ref.collectTypesRef(vid))
                << "types differ for value " << v;
        }
    }

    Module module_;
    std::unique_ptr<MantaAnalyzer> analyzer_;
    std::unique_ptr<TypeEnv> env_;
};

namespace {
const char *const kNestedCalls = R"(
func @leaf(%x:64) {
entry:
  ret %x
}
func @mid(%y:64) {
entry:
  %m = call.64 @leaf(%y)
  ret %m
}
func @top1() {
entry:
  %h = call.64 @malloc(8:64)
  %r = call.64 @mid(%h)
  %p = call.32 @print_str(%r)
  ret
}
func @top2() {
entry:
  %c = copy 42:64
  %r2 = call.64 @mid(%c)
  %p2 = call.32 @print_int(%r2)
  ret
}
)";
} // namespace

TEST_F(DdgWalkTest, MaxStackCapsDescentIdenticallyInBothEngines)
{
    load(kNestedCalls);
    WalkBudget shallow;
    shallow.maxStack = 1;  // can enter @mid but not @leaf
    expectEnginesAgree(shallow);

    DdgWalker fast = walker(shallow);
    (void)fast.findRoots(val("r"));
    (void)fast.collectTypes(val("h"), analyzer_->hints());
    EXPECT_LE(fast.stats().peakCtxDepth, shallow.maxStack);

    WalkBudget deep;
    deep.maxStack = 8;
    DdgWalker fast_deep = walker(deep);
    (void)fast_deep.collectTypes(val("h"), analyzer_->hints());
    EXPECT_GE(fast_deep.stats().peakCtxDepth, 2u);
    expectEnginesAgree(deep);
}

TEST_F(DdgWalkTest, CallArgExitRespectsBoundContext)
{
    // Backward from @top2's call result descends into @mid/@leaf with
    // the calling context bound; the CallArg exit must come back out
    // through @top2's argument edge only, never @top1's pointer.
    load(kNestedCalls);
    DdgWalker w = walker();
    const RefWalker ref = reference();
    for (const auto &roots : {w.findRoots(val("r2")),
                              ref.findRootsRef(val("r2"))}) {
        ASSERT_EQ(roots.size(), 1u);
        EXPECT_EQ(module_.value(roots[0]).kind, ValueKind::Constant);
        EXPECT_EQ(module_.value(roots[0]).constValue, 42);
    }
    for (const auto &roots : {w.findRoots(val("r")),
                              ref.findRootsRef(val("r"))}) {
        ASSERT_EQ(roots.size(), 1u);
        EXPECT_EQ(roots[0], val("h"));
    }
}

TEST_F(DdgWalkTest, EmptyStackAscentReachesEveryCaller)
{
    // Starting INSIDE the callee (no context bound), the walk may
    // ascend through any call-argument edge: both callers' sources
    // are roots of the shared parameter.
    load(kNestedCalls);
    DdgWalker w = walker();
    bool saw_h = false, saw_const = false;
    for (const ValueId r : w.findRoots(val("y"))) {
        saw_h |= r == val("h");
        saw_const |= module_.value(r).kind == ValueKind::Constant &&
                     module_.value(r).constValue == 42;
    }
    EXPECT_TRUE(saw_h);
    EXPECT_TRUE(saw_const);
    expectEnginesAgree();
}

TEST_F(DdgWalkTest, TruncatedQueriesAreNotMemoized)
{
    load(R"(
func @f() {
entry:
  %h = call.64 @malloc(8:64)
  %a = copy %h
  %b = copy %a
  %c = copy %b
  %d = copy %c
  ret %d
}
)");
    WalkBudget tiny;
    tiny.maxVisited = 2;
    DdgWalker w = walker(tiny);
    const auto first = w.rootsOf(val("d"));
    EXPECT_TRUE(w.lastQueryTruncated());
    const auto second = w.rootsOf(val("d"));
    EXPECT_TRUE(w.lastQueryTruncated());
    EXPECT_EQ(first, second);  // deterministic recompute
    EXPECT_EQ(w.stats().queries, 2u);
    EXPECT_EQ(w.stats().memoHits, 0u);  // truncated answers never cached
    EXPECT_EQ(w.stats().truncated, 2u);

    DdgWalker roomy = walker();
    const auto full1 = roomy.rootsOf(val("d"));
    EXPECT_FALSE(roomy.lastQueryTruncated());
    const auto full2 = roomy.rootsOf(val("d"));
    EXPECT_EQ(full1, full2);
    EXPECT_EQ(roomy.stats().memoHits, 1u);
    (void)roomy.typesOf(val("h"), analyzer_->hints());
    (void)roomy.typesOf(val("h"), analyzer_->hints());
    EXPECT_EQ(roomy.stats().memoHits, 2u);
    EXPECT_EQ(roomy.stats().truncated, 0u);
}

TEST_F(DdgWalkTest, GeneratedProgramEnginesAgree)
{
    GenConfig cfg;
    cfg.seed = 20250805;
    cfg.numFunctions = 20;
    GeneratedProgram prog = generateProgram(cfg);
    makeAcyclic(*prog.module);
    MantaAnalyzer an(*prog.module);

    const InferenceResult first = an.infer(HybridConfig::full());
    const InferenceResult second = an.infer(HybridConfig::full());
    const RefOverlays ref = referenceInfer(an, HybridConfig::full());
    EXPECT_EQ(diffOverlays(first, ref), "");
    EXPECT_EQ(diffOverlays(second, ref), "");

    // Packs are fixed-size and published in pack order, so the walk
    // counters repeat exactly from run to run.
    EXPECT_EQ(first.profile().csWalk.queries,
              second.profile().csWalk.queries);
    EXPECT_EQ(first.profile().fsWalk.steps, second.profile().fsWalk.steps);
    EXPECT_GT(first.profile().csWalk.queries +
                  first.profile().fsWalk.queries,
              0u);
}

} // namespace
} // namespace manta
