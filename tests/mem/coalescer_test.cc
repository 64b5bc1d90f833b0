/**
 * @file
 * Coalescer tests: the LSU's 128-byte transaction formation.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mem/coalescer.hh"

namespace siwi::mem {
namespace {

/** coalesce() into a buffer of its own. */
Transactions
coalesced(std::span<const LaneAccess> accesses, unsigned block_bytes)
{
    Transactions out;
    coalesce(accesses, block_bytes, out);
    return out;
}

std::vector<LaneAccess>
unitStride(unsigned lanes, Addr base)
{
    std::vector<LaneAccess> v;
    for (unsigned l = 0; l < lanes; ++l)
        v.push_back({l, base + l * 4});
    return v;
}

TEST(Coalescer, FullyCoalescedWarp32)
{
    auto txns = coalesced(unitStride(32, 0x1000), 128);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].block, 0x1000u);
    EXPECT_EQ(txns[0].lanes.count(), 32u);
}

TEST(Coalescer, Warp64UnitStrideIsTwoTransactions)
{
    auto txns = coalesced(unitStride(64, 0x1000), 128);
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_EQ(txns[0].block, 0x1000u);
    EXPECT_EQ(txns[1].block, 0x1080u);
    EXPECT_EQ(txns[0].lanes.count(), 32u);
    EXPECT_EQ(txns[1].lanes.count(), 32u);
}

TEST(Coalescer, MisalignedStraddlesTwoBlocks)
{
    auto txns = coalesced(unitStride(32, 0x1040), 128);
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_EQ(txns[0].block, 0x1000u);
    EXPECT_EQ(txns[1].block, 0x1080u);
}

TEST(Coalescer, BroadcastSingleTransaction)
{
    std::vector<LaneAccess> v;
    for (unsigned l = 0; l < 32; ++l)
        v.push_back({l, 0x2000});
    auto txns = coalesced(v, 128);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].lanes.count(), 32u);
}

TEST(Coalescer, StridedWorstCase)
{
    // Stride of one block per lane: fully divergent.
    std::vector<LaneAccess> v;
    for (unsigned l = 0; l < 32; ++l)
        v.push_back({l, Addr(l) * 128});
    auto txns = coalesced(v, 128);
    EXPECT_EQ(txns.size(), 32u);
}

TEST(Coalescer, TransactionsInFirstLaneOrder)
{
    std::vector<LaneAccess> v = {
        {0, 0x3080}, {1, 0x3000}, {2, 0x3080}, {3, 0x3000}};
    auto txns = coalesced(v, 128);
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_EQ(txns[0].block, 0x3080u); // first touched
    EXPECT_EQ(txns[0].lanes.bits(), 0b0101u);
    EXPECT_EQ(txns[1].lanes.bits(), 0b1010u);
}

TEST(Coalescer, EmptyInput)
{
    EXPECT_TRUE(coalesced({}, 128).empty());
}

TEST(Coalescer, LanesPartitionAcrossTransactions)
{
    // Property: every lane appears in exactly one transaction.
    std::vector<LaneAccess> v;
    for (unsigned l = 0; l < 48; ++l)
        v.push_back({l, Addr(l % 7) * 64});
    auto txns = coalesced(v, 128);
    LaneMask all;
    unsigned total = 0;
    for (const auto &t : txns) {
        EXPECT_FALSE(all.intersects(t.lanes));
        all |= t.lanes;
        total += t.lanes.count();
    }
    EXPECT_EQ(total, 48u);
}

TEST(Coalescer, FirstTransactionMatchesCoalesce)
{
    // The one-pass first transaction a memory split serves, and its
    // "lanes left over" flag, against the full coalescer: on random
    // lane sets of 1-64 lanes (ascending, as memAddresses writes
    // them) over a few blocks, a broadcast, or a strided stream.
    Rng rng(17);
    unsigned multi = 0;
    for (int round = 0; round < 4000; ++round) {
        std::vector<LaneAccess> v;
        const Addr base = Addr(rng.below(1024)) * 4;
        const unsigned pattern = unsigned(rng.below(3));
        const u64 keep = rng.next() | rng.next(); // ~3/4 of lanes
        for (unsigned l = 0; l < 64; ++l) {
            if (!((keep >> l) & 1) && rng.below(2))
                continue;
            Addr a = base;
            if (pattern == 0)
                a += Addr(rng.below(96)) * 4; // within 1-4 blocks
            else if (pattern == 2)
                a += Addr(l) * 4 * (1 + rng.below(33));
            v.push_back({l, a});
        }
        if (v.empty())
            v.push_back({unsigned(rng.below(64)), base});

        const Transactions txns = coalesced(v, 128);
        bool more = false;
        const Transaction first = firstTransaction(v, 128, &more);
        ASSERT_EQ(first.block, txns[0].block) << "round " << round;
        ASSERT_EQ(first.lanes, txns[0].lanes) << "round " << round;
        ASSERT_EQ(more, txns.size() > 1) << "round " << round;
        multi += more;
    }
    // Both outcomes are well covered.
    EXPECT_GT(multi, 1000u);
    EXPECT_LT(multi, 3000u);
}

class CoalescerStride
    : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoalescerStride, TransactionCountMatchesStride)
{
    // 32 lanes, stride s words: expect ceil(32*s*4 / 128) blocks
    // when accesses are dense and aligned.
    unsigned stride_words = GetParam();
    std::vector<LaneAccess> v;
    for (unsigned l = 0; l < 32; ++l)
        v.push_back({l, Addr(l) * stride_words * 4});
    auto txns = coalesced(v, 128);
    unsigned span_bytes = 32 * stride_words * 4;
    unsigned expect = (span_bytes + 127) / 128;
    EXPECT_EQ(txns.size(), std::max(1u, expect));
}

INSTANTIATE_TEST_SUITE_P(Strides, CoalescerStride,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u,
                                           32u));

} // namespace
} // namespace siwi::mem
