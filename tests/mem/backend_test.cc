/**
 * @file
 * MemoryBackend tests: the private DRAM channel and the
 * chip-shared L2.
 */

#include <gtest/gtest.h>

#include "mem/backend.hh"
#include "mem/memory_system.hh"

namespace siwi::mem {
namespace {

TEST(DramBackend, MatchesPrivateChannelTiming)
{
    DramConfig cfg;
    DramBackend be(cfg);
    Dram ref(cfg);
    EXPECT_EQ(be.read(0, 0x1000, 128, 0), ref.serve(0, 128));
    be.write(100, 0x2000, 64, 0);
    EXPECT_EQ(be.dramStats().transactions, 2u);
    EXPECT_EQ(be.dramStats().bytes, 192u);
}

TEST(SharedL2, MissThenHit)
{
    SharedL2 l2(L2Config{}, 128, DramConfig{});
    Cycle miss = l2.read(0, 0x1000, 128, 0);
    // Lookup + DRAM round trip.
    EXPECT_GT(miss, Cycle(l2.config().hit_latency + 330));
    Cycle hit = l2.read(miss, 0x1000, 128, 0);
    EXPECT_EQ(hit, miss + l2.config().hit_latency);
    EXPECT_EQ(l2.stats().hits, 1u);
    EXPECT_EQ(l2.stats().misses, 1u);
    EXPECT_EQ(l2.dramStats().transactions, 1u);
}

TEST(SharedL2, InvalidateDropsResidency)
{
    SharedL2 l2(L2Config{}, 128, DramConfig{});
    l2.read(0, 0x1000, 128, 0);
    l2.invalidate();
    l2.read(1000, 0x1000, 128, 0);
    EXPECT_EQ(l2.stats().misses, 2u);
    EXPECT_EQ(l2.stats().hits, 0u);
}

TEST(SharedL2, WritesPassThroughToDram)
{
    SharedL2 l2(L2Config{}, 128, DramConfig{});
    l2.write(0, 0x3000, 128, 0);
    EXPECT_EQ(l2.stats().writes, 1u);
    EXPECT_EQ(l2.dramStats().transactions, 1u);
    // No-allocate: a later read still misses.
    l2.read(1000, 0x3000, 128, 0);
    EXPECT_EQ(l2.stats().misses, 1u);
}

TEST(SharedL2, SharedAcrossMemorySystems)
{
    // Two SMs' MemorySystems on one L2: the second SM's miss to a
    // block the first already pulled is an L2 hit and returns much
    // sooner than a full DRAM trip.
    SharedL2 l2(L2Config{}, 128, DramConfig{});
    MemConfig mcfg;
    MemorySystem sm0(mcfg, l2);
    MemorySystem sm1(mcfg, l2);

    Cycle first = sm0.load(0, 0x4000);
    Cycle start = first + 1;
    Cycle second = sm1.load(start, 0x4000);
    EXPECT_EQ(l2.stats().hits, 1u);
    EXPECT_EQ(l2.stats().misses, 1u);
    EXPECT_EQ(l2.dramStats().transactions, 1u);
    // L2 hit: lookup latency + L1 hit latency, no DRAM leg.
    EXPECT_EQ(second, start + l2.config().hit_latency +
                          mcfg.l1.hit_latency);
}

} // namespace
} // namespace siwi::mem
