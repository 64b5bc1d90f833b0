/**
 * @file
 * Unit tests for LaneMask set algebra.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/lane_mask.hh"

namespace siwi {
namespace {

TEST(LaneMask, DefaultEmpty)
{
    LaneMask m;
    EXPECT_TRUE(m.none());
    EXPECT_FALSE(m.any());
    EXPECT_EQ(m.count(), 0u);
}

TEST(LaneMask, FirstN)
{
    EXPECT_EQ(LaneMask::firstN(0).bits(), 0u);
    EXPECT_EQ(LaneMask::firstN(1).bits(), 1u);
    EXPECT_EQ(LaneMask::firstN(4).bits(), 0xfu);
    EXPECT_EQ(LaneMask::firstN(32).bits(), 0xffffffffull);
    EXPECT_EQ(LaneMask::firstN(64).bits(), ~u64(0));
}

TEST(LaneMask, SetClearTest)
{
    LaneMask m;
    m.set(5);
    m.set(63);
    EXPECT_TRUE(m.test(5));
    EXPECT_TRUE(m.test(63));
    EXPECT_FALSE(m.test(4));
    EXPECT_EQ(m.count(), 2u);
    m.clear(5);
    EXPECT_FALSE(m.test(5));
    EXPECT_EQ(m.count(), 1u);
}

TEST(LaneMask, SubsetOf)
{
    LaneMask a(0b0110);
    LaneMask b(0b1110);
    EXPECT_TRUE(a.subsetOf(b));
    EXPECT_FALSE(b.subsetOf(a));
    EXPECT_TRUE(a.subsetOf(a));
    EXPECT_TRUE(LaneMask().subsetOf(a));
}

TEST(LaneMask, Intersects)
{
    EXPECT_TRUE(LaneMask(0b0110).intersects(LaneMask(0b0100)));
    EXPECT_FALSE(LaneMask(0b0110).intersects(LaneMask(0b1001)));
    EXPECT_FALSE(LaneMask().intersects(LaneMask(0xff)));
}

TEST(LaneMask, FirstLast)
{
    LaneMask m(0b0110'1000);
    EXPECT_EQ(m.first(), 3u);
    EXPECT_EQ(m.last(), 6u);
    EXPECT_EQ(LaneMask().first(), 64u);
    EXPECT_EQ(LaneMask::lane(63).last(), 63u);
}

TEST(LaneMask, ForEachVisitsSetLanesInOrder)
{
    std::vector<unsigned> seen;
    LaneMask(0b1000'0000'0110'0001 | (u64(1) << 63)).forEach(
        [&](unsigned l) { seen.push_back(l); });
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 5, 6, 15, 63}));
    LaneMask().forEach([](unsigned) { FAIL() << "empty mask"; });
}

TEST(LaneMask, Wave)
{
    LaneMask m = LaneMask::firstN(64);
    EXPECT_EQ(m.wave(0, 8).count(), 8u);
    EXPECT_EQ(m.wave(7, 8).count(), 8u);
    EXPECT_EQ(m.wave(1, 8).first(), 8u);

    LaneMask sparse;
    sparse.set(3);
    sparse.set(40);
    EXPECT_EQ(sparse.wave(0, 32).count(), 1u);
    EXPECT_EQ(sparse.wave(1, 32).first(), 40u);
}

TEST(LaneMask, Operators)
{
    LaneMask a(0b1100), b(0b1010);
    EXPECT_EQ((a & b).bits(), 0b1000u);
    EXPECT_EQ((a | b).bits(), 0b1110u);
    EXPECT_EQ((a ^ b).bits(), 0b0110u);
    EXPECT_EQ((~a & LaneMask::firstN(4)).bits(), 0b0011u);
    LaneMask c = a;
    c &= b;
    EXPECT_EQ(c.bits(), 0b1000u);
    c |= a;
    EXPECT_EQ(c.bits(), 0b1100u);
}

TEST(LaneMask, ToString)
{
    LaneMask m;
    m.set(0);
    m.set(2);
    EXPECT_EQ(m.toString(4), "1010");
}

class LaneMaskWaveParam : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LaneMaskWaveParam, WavesPartitionFullMask)
{
    // Property: the waves of any mask partition it exactly.
    unsigned width = GetParam();
    LaneMask m(0xdeadbeefcafef00dull);
    LaneMask acc;
    for (unsigned w = 0; w < 64 / width; ++w) {
        LaneMask part = m.wave(w, width);
        EXPECT_FALSE(acc.intersects(part));
        acc |= part;
    }
    EXPECT_EQ(acc, m);
}

INSTANTIATE_TEST_SUITE_P(Widths, LaneMaskWaveParam,
                         ::testing::Values(8u, 16u, 32u, 64u));

} // namespace
} // namespace siwi
