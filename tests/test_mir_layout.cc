/**
 * @file
 * Tests for the arena-backed struct-of-arrays MIR storage layout:
 * pool growth keeping ids stable, CSR operand-slice iteration order,
 * name-interner dedup/round-trip, the pool snapshot codec, and the
 * LocSet paged-bitmap tier (promotion, demotion, word-parallel set
 * algebra) agreeing with the vector tiers.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/locset.h"
#include "mir/builder.h"
#include "mir/mir.h"
#include "mir/printer.h"
#include "mir/serialize.h"
#include "support/binio.h"

namespace manta {
namespace {

// ---- Pool growth / id stability -----------------------------------

TEST(MirLayout, ValueIdsStayValidAcrossPoolGrowth)
{
    Module m;
    std::vector<ValueId> ids;
    for (int i = 0; i < 4096; ++i) {
        Value v;
        v.kind = ValueKind::Constant;
        v.width = 64;
        v.constValue = i;
        ids.push_back(m.addValue(v));
    }
    // Growth reallocates the pool; the 32-bit handles must still
    // resolve to the records they were handed out for.
    for (int i = 0; i < 4096; ++i) {
        EXPECT_EQ(ids[i].index(), static_cast<std::uint32_t>(i));
        EXPECT_EQ(m.value(ids[i]).constValue, i);
    }
}

TEST(MirLayout, InstSlicesSurviveOperandPoolGrowth)
{
    Module m;
    std::vector<ValueId> vals;
    for (int i = 0; i < 64; ++i) {
        Value v;
        v.kind = ValueKind::Constant;
        v.constValue = i;
        vals.push_back(m.addValue(v));
    }
    // Interleave instructions with growing operand lists so slices
    // land at many offsets while the shared pool reallocates.
    std::vector<InstId> insts;
    for (int i = 0; i < 512; ++i) {
        Instruction rec;
        rec.op = Opcode::Call;
        std::vector<ValueId> ops;
        for (int k = 0; k <= i % 7; ++k)
            ops.push_back(vals[static_cast<std::size_t>((i + k) % 64)]);
        insts.push_back(m.addInst(rec, ops));
    }
    for (int i = 0; i < 512; ++i) {
        const auto ops = m.operands(insts[static_cast<std::size_t>(i)]);
        ASSERT_EQ(ops.size(), static_cast<std::size_t>(i % 7 + 1));
        for (std::size_t k = 0; k < ops.size(); ++k) {
            EXPECT_EQ(ops[k],
                      vals[(static_cast<std::size_t>(i) + k) % 64]);
        }
    }
}

// ---- CSR slice semantics ------------------------------------------

TEST(MirLayout, SetOperandsGrowthLeavesNeighborsIntact)
{
    Module m;
    Value v;
    v.kind = ValueKind::Constant;
    const ValueId a = m.addValue(v);
    const ValueId b = m.addValue(v);
    const ValueId c = m.addValue(v);

    Instruction rec;
    rec.op = Opcode::Call;
    const ValueId first_ops[] = {a, b};
    const InstId i0 = m.addInst(rec, first_ops);
    const ValueId second_ops[] = {c};
    const InstId i1 = m.addInst(rec, second_ops);

    // Same length: rewritten in place.
    const ValueId same[] = {c, a};
    m.setOperands(i0, same);
    EXPECT_EQ(m.operand(i0, 0), c);
    EXPECT_EQ(m.operand(i0, 1), a);

    // Longer: appends a fresh run; the neighbor's slice is untouched.
    const ValueId grown[] = {a, b, c};
    m.setOperands(i0, grown);
    ASSERT_EQ(m.inst(i0).numOperands(), 3u);
    EXPECT_EQ(m.operand(i0, 0), a);
    EXPECT_EQ(m.operand(i0, 1), b);
    EXPECT_EQ(m.operand(i0, 2), c);
    ASSERT_EQ(m.inst(i1).numOperands(), 1u);
    EXPECT_EQ(m.operand(i1, 0), c);
}

TEST(MirLayout, CloneDuplicatesSlicesIndependently)
{
    Module m;
    Value v;
    v.kind = ValueKind::Constant;
    const ValueId a = m.addValue(v);
    const ValueId b = m.addValue(v);

    Instruction rec;
    rec.op = Opcode::Call;
    const ValueId ops[] = {a, b};
    const InstId orig = m.addInst(rec, ops);
    const InstId clone = m.addInstClone(m.inst(orig));

    // Rewriting the clone's operands must not alias the original.
    m.operandsMut(clone)[0] = b;
    EXPECT_EQ(m.operand(orig, 0), a);
    EXPECT_EQ(m.operand(clone, 0), b);
    EXPECT_EQ(m.operand(clone, 1), b);
}

// ---- Name interner ------------------------------------------------

TEST(MirLayout, InternerDedupsAndRoundTrips)
{
    Module m;
    const NameId a = m.internName("foo");
    const NameId b = m.internName("bar");
    const NameId a2 = m.internName("foo");
    EXPECT_EQ(a, a2);
    EXPECT_NE(a, b);
    EXPECT_EQ(m.str(a), "foo");
    EXPECT_EQ(m.str(b), "bar");

    // Empty maps to the invalid handle, which prints as "".
    const NameId none = m.internName("");
    EXPECT_FALSE(none.valid());
    EXPECT_EQ(m.str(none), "");
}

TEST(MirLayout, NameOfResolvesThroughValues)
{
    Module m;
    Value v;
    v.kind = ValueKind::Constant;
    v.name = m.internName("answer");
    const ValueId vid = m.addValue(v);
    EXPECT_EQ(m.nameOf(vid), "answer");
}

// ---- Pool snapshot codec ------------------------------------------

TEST(MirLayout, PoolCodecRoundTripsToIdenticalText)
{
    Module m;
    ModuleBuilder mb(m);
    auto fb = mb.function("f", {64, 64});
    const ValueId sum = fb.add(fb.param(0), fb.param(1));
    fb.ret(sum);

    ByteWriter pool_w;
    serializeModulePools(m, pool_w);
    const std::string pool_bytes = pool_w.take();
    ByteReader pool_r(pool_bytes);
    Module via_pools;
    ASSERT_EQ(deserializeModulePools(pool_r, via_pools), PoolDecode::Ok);

    EXPECT_EQ(printModule(via_pools), printModule(m));
}

TEST(MirLayout, PoolCodecRejectsTruncatedInput)
{
    Module m;
    ModuleBuilder mb(m);
    auto fb = mb.function("f", {64});
    fb.ret(fb.param(0));

    ByteWriter w;
    serializeModulePools(m, w);
    std::string bytes = w.take();
    bytes.resize(bytes.size() / 2);
    ByteReader r(bytes);
    Module out;
    EXPECT_EQ(deserializeModulePools(r, out), PoolDecode::Malformed);
}

// ---- LocSet bitmap tier -------------------------------------------

Loc
loc(std::uint32_t obj, std::int32_t offset)
{
    Loc l;
    l.obj = ObjectId(obj);
    l.offset = offset;
    return l;
}

TEST(MirLayout, LocSetPromotesAndKeepsSortedOrder)
{
    LocSet set;
    std::set<Loc> ref;
    // Mixed objects, offsets and the collapsed (-1) sentinel, inserted
    // in a scrambled order so promotion sees an arbitrary history.
    for (std::uint32_t i = 0; i < 3 * LocSet::kPromote; ++i) {
        const std::uint32_t obj = (i * 7) % 5;
        const std::int32_t off =
            (i % 11 == 0) ? Loc::unknownOffset
                          : static_cast<std::int32_t>((i * 13) % 97);
        set.insert(loc(obj, off));
        ref.insert(loc(obj, off));
    }
    ASSERT_TRUE(set.onBitset());
    ASSERT_EQ(set.size(), ref.size());
    // Iteration must match std::set's (obj, signed offset) order, with
    // collapsed (-1) sorting before offset 0.
    auto it = set.begin();
    for (const Loc &expect : ref) {
        ASSERT_NE(it, set.end());
        EXPECT_EQ(*it, expect);
        ++it;
    }
    EXPECT_EQ(it, set.end());

    for (const Loc &l : ref)
        EXPECT_TRUE(set.contains(l));
    EXPECT_FALSE(set.contains(loc(99, 0)));
}

TEST(MirLayout, LocSetCompactDemotesWithoutChangingContent)
{
    LocSet set;
    for (std::uint32_t i = 0; i < 2 * LocSet::kPromote; ++i)
        set.insert(loc(i % 3, static_cast<std::int32_t>(i)));
    ASSERT_TRUE(set.onBitset());
    const LocSet paged = set;

    set.compact();
    EXPECT_FALSE(set.onBitset());
    EXPECT_EQ(set.size(), paged.size());
    // Mixed-tier equality: element-wise over identical orderings.
    EXPECT_TRUE(set == paged);
    // compact() on a vector-tier set is a no-op.
    set.compact();
    EXPECT_TRUE(set == paged);
}

TEST(MirLayout, LocSetPagedUnionMatchesElementWise)
{
    LocSet a, b;
    std::set<Loc> ref;
    for (std::uint32_t i = 0; i < 2 * LocSet::kPromote; ++i) {
        a.insert(loc(i % 4, static_cast<std::int32_t>(i * 3)));
        ref.insert(loc(i % 4, static_cast<std::int32_t>(i * 3)));
        b.insert(loc(i % 4, static_cast<std::int32_t>(i * 3 + 1)));
        ref.insert(loc(i % 4, static_cast<std::int32_t>(i * 3 + 1)));
    }
    ASSERT_TRUE(a.onBitset());
    ASSERT_TRUE(b.onBitset());
    a.unionWith(b);
    EXPECT_EQ(a.size(), ref.size());
    auto it = a.begin();
    for (const Loc &expect : ref) {
        ASSERT_NE(it, a.end());
        EXPECT_EQ(*it, expect);
        ++it;
    }
}

TEST(MirLayout, LocSetPagedIntersectionMatchesElementWise)
{
    LocSet a, b;
    for (std::uint32_t i = 0; i < 3 * LocSet::kPromote; ++i)
        a.insert(loc(0, static_cast<std::int32_t>(i)));
    for (std::uint32_t i = 0; i < 3 * LocSet::kPromote; ++i)
        b.insert(loc(0, static_cast<std::int32_t>(i * 2)));
    ASSERT_TRUE(a.onBitset());
    ASSERT_TRUE(b.onBitset());

    LocSet expected;
    for (const Loc &l : a) {
        if (b.contains(l))
            expected.insert(l);
    }
    a.intersectWith(b);
    EXPECT_TRUE(a == expected);
}

TEST(MirLayout, LocSetMixedTierUnionAndEquality)
{
    LocSet small;
    small.insert(loc(1, 4));
    small.insert(loc(2, Loc::unknownOffset));

    LocSet big;
    for (std::uint32_t i = 0; i < 2 * LocSet::kPromote; ++i)
        big.insert(loc(0, static_cast<std::int32_t>(i)));
    ASSERT_TRUE(big.onBitset());
    ASSERT_FALSE(small.onBitset());

    // paged |= vector and vector |= paged agree.
    LocSet lhs = big;
    lhs.unionWith(small);
    LocSet rhs = small;
    rhs.unionWith(big);
    EXPECT_EQ(lhs.size(), big.size() + small.size());
    EXPECT_TRUE(lhs == rhs);

    // Equality across tiers compares content, not representation.
    LocSet demoted = lhs;
    demoted.compact();
    EXPECT_TRUE(demoted == lhs);
    demoted.insert(loc(9, 9));
    EXPECT_TRUE(demoted != lhs);
}

} // namespace
} // namespace manta
