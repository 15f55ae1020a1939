/**
 * @file
 * The sparse points-to solver: LocSet container semantics, delta
 * propagation on small CFG shapes, and the differential guarantee
 * that the sparse worklist engine computes a bit-identical solution
 * to the dense reference (PtsSolver::Dense) on generated corpora —
 * including identical downstream inference results.
 */
#include <gtest/gtest.h>

#include "analysis/acyclic.h"
#include "analysis/locset.h"
#include "analysis/memobj.h"
#include "analysis/pointsto.h"
#include "core/pipeline.h"
#include "frontend/generator.h"
#include "mir/parser.h"

namespace manta {
namespace {

Loc
loc(std::uint32_t obj, std::int32_t offset)
{
    return Loc{ObjectId(obj), offset};
}

// ---------------------------------------------------------------------------
// LocSet container semantics (must mirror the std::set it replaced).
// ---------------------------------------------------------------------------

TEST(LocSetTest, InsertDedupesAndReportsInsertion)
{
    LocSet set;
    EXPECT_TRUE(set.empty());
    EXPECT_TRUE(set.insert(loc(1, 8)).second);
    EXPECT_FALSE(set.insert(loc(1, 8)).second);
    EXPECT_EQ(set.size(), 1u);
    EXPECT_EQ(set.insert(loc(1, 8)).first->offset, 8);
}

TEST(LocSetTest, IterationIsSortedByObjectThenSignedOffset)
{
    LocSet set;
    set.insert(loc(2, 0));
    set.insert(loc(1, 16));
    set.insert(loc(1, Loc::unknownOffset));
    set.insert(loc(1, 0));
    ASSERT_EQ(set.size(), 4u);
    auto it = set.begin();
    // The unknown offset is -1 and must sort before real offsets,
    // exactly as the signed std::set ordering did.
    EXPECT_EQ(*it++, loc(1, Loc::unknownOffset));
    EXPECT_EQ(*it++, loc(1, 0));
    EXPECT_EQ(*it++, loc(1, 16));
    EXPECT_EQ(*it++, loc(2, 0));
    EXPECT_EQ(it, set.end());
}

TEST(LocSetTest, RangeInsertIsSetUnion)
{
    LocSet a;
    a.insert(loc(1, 0));
    a.insert(loc(3, 0));
    LocSet b;
    b.insert(loc(2, 0));
    b.insert(loc(3, 0));
    a.insert(b.begin(), b.end());
    ASSERT_EQ(a.size(), 3u);
    EXPECT_TRUE(a.contains(loc(1, 0)));
    EXPECT_TRUE(a.contains(loc(2, 0)));
    EXPECT_EQ(a.count(loc(3, 0)), 1u);
    EXPECT_EQ(a.count(loc(4, 0)), 0u);
}

TEST(LocSetTest, GrowsPastInlineCapacity)
{
    LocSet set;
    constexpr int n = 37; // enough to spill and regrow a few times
    for (int i = n - 1; i >= 0; --i)
        set.insert(loc(7, i * 4));
    ASSERT_EQ(set.size(), static_cast<std::size_t>(n));
    int expect = 0;
    for (const Loc &l : set) {
        EXPECT_EQ(l, loc(7, expect));
        expect += 4;
    }
    for (int i = 0; i < n; ++i)
        EXPECT_FALSE(set.insert(loc(7, i * 4)).second);
}

TEST(LocSetTest, CopyAndMoveKeepContents)
{
    LocSet small;
    small.insert(loc(1, 0));
    LocSet big;
    for (int i = 0; i < 16; ++i)
        big.insert(loc(2, i));

    LocSet small_copy = small;
    LocSet big_copy = big;
    EXPECT_EQ(small_copy, small);
    EXPECT_EQ(big_copy, big);

    LocSet big_moved = std::move(big_copy);
    EXPECT_EQ(big_moved, big);
    EXPECT_TRUE(big_copy.empty()); // NOLINT: moved-from is reusable
    big_copy = big_moved;
    EXPECT_EQ(big_copy, big);

    // Self-consistency of equality.
    EXPECT_NE(small, big);
    big_moved.clear();
    EXPECT_TRUE(big_moved.empty());
    EXPECT_NE(big_moved, big);
}

// ---------------------------------------------------------------------------
// Delta propagation on explicit CFG shapes.
// ---------------------------------------------------------------------------

class SparseDiffTest : public ::testing::Test
{
  protected:
    /** Run both engines on one module text; return (dense, sparse). */
    void
    analyzeBoth(const std::string &text)
    {
        module_ = parseModuleOrDie(text);
        objects_ = std::make_unique<MemObjects>(module_);
        dense_ = std::make_unique<PointsTo>(module_, *objects_, true,
                                            PtsSolver::Dense);
        dense_->run();
        sparse_ = std::make_unique<PointsTo>(module_, *objects_, true,
                                             PtsSolver::Sparse);
        sparse_->run();
    }

    void
    expectIdentical()
    {
        for (std::size_t v = 0; v < module_.numValues(); ++v) {
            const ValueId vid(static_cast<ValueId::RawType>(v));
            EXPECT_EQ(dense_->locs(vid), sparse_->locs(vid))
                << "value #" << v;
        }
        EXPECT_EQ(dense_->fieldBuckets().size(),
                  sparse_->fieldBuckets().size());
        for (const auto &[obj, off] : dense_->fieldBuckets()) {
            EXPECT_EQ(dense_->fieldPts(obj, off), sparse_->fieldPts(obj, off))
                << "bucket (" << obj.raw() << ", " << off << ")";
        }
    }

    Module module_;
    std::unique_ptr<MemObjects> objects_;
    std::unique_ptr<PointsTo> dense_;
    std::unique_ptr<PointsTo> sparse_;
};

TEST_F(SparseDiffTest, DiamondStoreLoadPropagatesDeltas)
{
    // Stores on both diamond arms feed a load past the join; the load
    // must be re-transferred when either arm's bucket grows.
    analyzeBoth(R"(
func @f(%c:1) {
entry:
  %slot = alloca 8
  %a = call.64 @malloc(16:64)
  %b = call.64 @malloc(32:64)
  br %c, left, right
left:
  store %slot, %a
  jmp done
right:
  store %slot, %b
  jmp done
done:
  %l = load.64 %slot
  ret
}
)");
    expectIdentical();
    // The load observes both arms' stores.
    const auto find = [&](const char *name) {
        for (std::size_t v = 0; v < module_.numValues(); ++v) {
            const ValueId vid(static_cast<ValueId::RawType>(v));
            if (module_.nameOf(vid) == name)
                return vid;
        }
        return ValueId::invalid();
    };
    const LocSet &loaded = sparse_->locs(find("l"));
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(sparse_->stats().converged);
    EXPECT_TRUE(dense_->stats().converged);
    // The sparse engine transfers strictly fewer instructions than
    // dense passes x instructions.
    EXPECT_LT(sparse_->stats().pops, dense_->stats().pops);
    EXPECT_GT(sparse_->stats().deltaLocs, 0u);
}

TEST_F(SparseDiffTest, ChainedCopiesConvergeIdentically)
{
    // A store whose payload arrives late (through a call binding)
    // exercises the "old address x new payload" half of the delta
    // store transfer, plus bucket re-reads at the load.
    analyzeBoth(R"(
func @make() {
entry:
  %h = call.64 @malloc(8:64)
  ret %h
}
func @f() {
entry:
  %slot = alloca 8
  %p = call.64 @make()
  store %slot, %p
  %l = load.64 %slot
  %l2 = copy %l
  ret
}
)");
    expectIdentical();
}

TEST_F(SparseDiffTest, SymbolicCollapseMatchesDenseSchedule)
{
    // The symbolic-index branch is non-monotone (it fires only while
    // one side is pointer-free), so identical results require the
    // sparse engine to replay the dense visit schedule.
    analyzeBoth(R"(
func @f(%i:64) {
entry:
  %s = alloca 32
  %t = alloca 8
  %x = add %s, %i
  %y = sub %x, 4:64
  %h = call.64 @malloc(8:64)
  store %x, %h
  %l = load.64 %y
  ret
}
)");
    expectIdentical();
}

TEST_F(SparseDiffTest, StrcpyPayloadCacheMatchesDense)
{
    analyzeBoth(R"(
func @f() {
entry:
  %src = alloca 16
  %dst = alloca 16
  %h = call.64 @malloc(8:64)
  store %src, %h
  %r = call.64 @strcpy(%dst, %src)
  %l = load.64 %dst
  ret
}
)");
    expectIdentical();
}

// ---------------------------------------------------------------------------
// Differential fuzzing over generated corpora + downstream inference.
// ---------------------------------------------------------------------------

TEST(SparseCorpusTest, BitIdenticalToDenseOnGeneratedPrograms)
{
    for (const std::uint64_t seed : {11ull, 97ull, 2026ull}) {
        GenConfig cfg;
        cfg.seed = seed;
        cfg.numFunctions = 40;
        cfg.realBugRate = 0.05;
        cfg.decoyRate = 0.05;
        GeneratedProgram prog = generateProgram(cfg);
        makeAcyclic(*prog.module);
        const Module &m = *prog.module;
        const MemObjects objects(m);

        PointsTo dense(m, objects, true, PtsSolver::Dense);
        dense.run();
        PointsTo sparse(m, objects, true, PtsSolver::Sparse);
        sparse.run();

        ASSERT_TRUE(dense.stats().converged) << "seed " << seed;
        ASSERT_TRUE(sparse.stats().converged) << "seed " << seed;

        for (std::size_t v = 0; v < m.numValues(); ++v) {
            const ValueId vid(static_cast<ValueId::RawType>(v));
            ASSERT_EQ(dense.locs(vid), sparse.locs(vid))
                << "seed " << seed << " value #" << v;
        }

        // Field buckets: same set of buckets, same flow-insensitive
        // contents.
        auto dense_buckets = dense.fieldBuckets();
        auto sparse_buckets = sparse.fieldBuckets();
        std::sort(dense_buckets.begin(), dense_buckets.end());
        std::sort(sparse_buckets.begin(), sparse_buckets.end());
        ASSERT_EQ(dense_buckets, sparse_buckets) << "seed " << seed;
        for (const auto &[obj, off] : dense_buckets) {
            ASSERT_EQ(dense.fieldPts(obj, off), sparse.fieldPts(obj, off))
                << "seed " << seed;
        }

        // Flow-filtered loads: identical observable contents at every
        // load site through every address location.
        for (std::size_t i = 0; i < m.numInsts(); ++i) {
            const InstId iid(static_cast<InstId::RawType>(i));
            if (m.inst(iid).op != Opcode::Load)
                continue;
            for (const Loc &addr :
                 sparse.locs(m.operand(m.inst(iid), 0))) {
                ASSERT_EQ(dense.loadedLocs(addr, iid),
                          sparse.loadedLocs(addr, iid))
                    << "seed " << seed << " load #" << i;
            }
        }
    }
}

TEST(SparseCorpusTest, DownstreamInferenceMatchesDense)
{
    GenConfig cfg;
    cfg.seed = 31337;
    cfg.numFunctions = 40;
    cfg.realBugRate = 0.05;
    GeneratedProgram prog = generateProgram(cfg);
    makeAcyclic(*prog.module);
    Module &m = *prog.module;

    // Everything downstream of points-to (the DDG, the hint index and
    // the flow-insensitive environment the refinement stages start
    // from) must come out identical from either solver.
    const MemObjects objects(m);
    PointsTo dense(m, objects, true, PtsSolver::Dense);
    dense.run();
    PointsTo sparse(m, objects);
    sparse.run();
    ASSERT_EQ(sparse.solver(), PtsSolver::Sparse);

    const Ddg dense_ddg(m, dense);
    const Ddg sparse_ddg(m, sparse);
    ASSERT_EQ(dense_ddg.numEdges(), sparse_ddg.numEdges());
    for (std::uint32_t e = 0; e < dense_ddg.numEdges(); ++e) {
        const Ddg::Edge &de = dense_ddg.edge(e);
        const Ddg::Edge &se = sparse_ddg.edge(e);
        ASSERT_TRUE(de.from == se.from && de.to == se.to &&
                    de.kind == se.kind && de.site == se.site)
            << "edge #" << e;
    }

    const HintIndex dense_hints(m, &dense);
    const HintIndex sparse_hints(m, &sparse);
    ASSERT_EQ(dense_hints.numHints(), sparse_hints.numHints());
    for (std::size_t i = 0; i < m.numInsts(); ++i) {
        const InstId iid(static_cast<InstId::RawType>(i));
        const auto &dh = dense_hints.at(iid);
        const auto &sh = sparse_hints.at(iid);
        ASSERT_EQ(dh.size(), sh.size()) << "inst #" << i;
        for (std::size_t h = 0; h < dh.size(); ++h) {
            ASSERT_TRUE(dh[h].value == sh[h].value &&
                        dh[h].type == sh[h].type)
                << "inst #" << i << " hint " << h;
        }
    }
    TypeEnv dense_env(m.types());
    TypeEnv sparse_env(m.types());
    FlowInsensitiveInference(m, dense, dense_hints).run(dense_env);
    FlowInsensitiveInference(m, sparse, sparse_hints).run(sparse_env);
    for (std::size_t v = 0; v < m.numValues(); ++v) {
        const ValueId vid(static_cast<ValueId::RawType>(v));
        const ValueKind kind = m.value(vid).kind;
        if (kind != ValueKind::Argument && kind != ValueKind::InstResult)
            continue;
        ASSERT_EQ(dense_env.classifyOf(TypeVar::of(vid)),
                  sparse_env.classifyOf(TypeVar::of(vid)))
            << "value #" << v;
    }
    EXPECT_GT(sparse.stats().seconds, 0.0);
    EXPECT_LE(sparse.stats().pops, dense.stats().pops);
}

TEST(SparseCorpusTest, FlowInsensitiveModeAlsoMatches)
{
    GenConfig cfg;
    cfg.seed = 777;
    cfg.numFunctions = 25;
    GeneratedProgram prog = generateProgram(cfg);
    makeAcyclic(*prog.module);
    const Module &m = *prog.module;
    const MemObjects objects(m);

    PointsTo dense(m, objects, false, PtsSolver::Dense);
    dense.run();
    PointsTo sparse(m, objects, false, PtsSolver::Sparse);
    sparse.run();
    for (std::size_t v = 0; v < m.numValues(); ++v) {
        const ValueId vid(static_cast<ValueId::RawType>(v));
        ASSERT_EQ(dense.locs(vid), sparse.locs(vid)) << "value #" << v;
    }
}

} // namespace
} // namespace manta
