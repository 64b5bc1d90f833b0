/**
 * @file
 * MemorySystem (L1 + MSHR + DRAM glue) tests.
 */

#include <gtest/gtest.h>

#include "mem/memory_system.hh"

namespace siwi::mem {
namespace {

TEST(MemorySystem, ColdMissThenHit)
{
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    Cycle miss = ms.load(0, 0x1000);
    EXPECT_GT(miss, Cycle(330)); // went to DRAM
    // After the fill retires, the block hits.
    ms.tick(miss + 1);
    Cycle hit = ms.load(miss + 1, 0x1000);
    EXPECT_EQ(hit, miss + 1 + 3);
    EXPECT_EQ(ms.cacheStats().hits, 1u);
    EXPECT_EQ(ms.cacheStats().misses, 1u);
}

TEST(MemorySystem, MshrMergesSameBlock)
{
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    Cycle a = ms.load(0, 0x2000);
    Cycle b = ms.load(1, 0x2000);
    // Second request merges: same data-ready time, without a
    // second DRAM transaction.
    EXPECT_EQ(b, a);
    EXPECT_EQ(ms.stats().mshr_merges, 1u);
    EXPECT_EQ(dram.dramStats().transactions, 1u);
}

TEST(MemorySystem, DistinctBlocksQueueOnBandwidth)
{
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    Cycle a = ms.load(0, 0x0);
    Cycle b = ms.load(0, 0x80);
    EXPECT_GT(b, a);
}

TEST(MemorySystem, StoreIsFireAndForget)
{
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    Cycle done = ms.store(5, 0x3000, 128);
    EXPECT_EQ(done, Cycle(6));
    EXPECT_EQ(ms.stats().store_transactions, 1u);
    // Parked in the write-combining buffer; drains on eviction.
    EXPECT_EQ(dram.dramStats().transactions, 0u);
    ms.invalidate(6);
    EXPECT_EQ(dram.dramStats().transactions, 1u);
}

TEST(MemorySystem, WriteCombiningMergesRepeatedStores)
{
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    for (int i = 0; i < 50; ++i)
        ms.store(Cycle(i), 0x3000, 4);
    EXPECT_EQ(ms.stats().write_combines, 49u);
    ms.invalidate(50);
    EXPECT_EQ(dram.dramStats().transactions, 1u);
    EXPECT_LE(dram.dramStats().bytes, 128u);
}

TEST(MemorySystem, WriteBufferEvictsLru)
{
    MemConfig cfg;
    cfg.write_buffer_entries = 2;
    DramBackend dram{DramConfig{}};
    MemorySystem ms(cfg, dram);
    ms.store(0, 0x000, 4);
    ms.store(1, 0x080, 4);
    ms.store(2, 0x100, 4); // evicts 0x000
    EXPECT_EQ(dram.dramStats().transactions, 1u);
    ms.store(3, 0x080, 4); // still resident: combines
    EXPECT_EQ(ms.stats().write_combines, 1u);
}

TEST(MemorySystem, WriteBufferForwardsLoads)
{
    // A load to a block resident in the write-combining buffer is
    // served on chip at hit latency, without a DRAM round trip.
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    ms.store(0, 0x3000, 128);
    ms.tick(1000);
    Cycle c = ms.load(1000, 0x3000);
    EXPECT_EQ(c, Cycle(1000 + 3));
    EXPECT_EQ(ms.stats().write_forwards, 1u);
    EXPECT_EQ(dram.dramStats().transactions, 0u);
}

TEST(MemorySystem, StoreDoesNotAllocate)
{
    // Once the write buffer has drained, the store left no L1
    // residency behind (write-through no-allocate): a later load
    // is a full miss.
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    ms.store(0, 0x3000, 128);
    ms.invalidate(10); // drains the buffer
    ms.tick(1000);
    Cycle c = ms.load(1000, 0x3000);
    EXPECT_GT(c, Cycle(1000 + 3)); // miss
    EXPECT_EQ(ms.stats().write_forwards, 0u);
}

TEST(MemorySystem, MshrExhaustionQueues)
{
    MemConfig cfg;
    cfg.mshrs = 2;
    DramBackend dram{DramConfig{}};
    MemorySystem ms(cfg, dram);
    Cycle a = ms.load(0, 0x000);
    (void)a;
    ms.load(0, 0x080);
    Cycle c = ms.load(0, 0x100); // third miss: queues
    EXPECT_EQ(ms.stats().mshr_stalls, 1u);
    EXPECT_GT(c, Cycle(330 + 13));
}

TEST(MemorySystem, MshrOccupancyBoundedUnderMissStorm)
{
    // The over-admission bug: with every MSHR busy, each queued
    // miss waited behind the same earliest slot and the in-flight
    // set grew past cfg.mshrs. Storm the system with misses and
    // check the slot model holds the bound at every admission.
    MemConfig cfg;
    cfg.mshrs = 4;
    DramBackend dram{DramConfig{}};
    MemorySystem ms(cfg, dram);
    std::vector<Cycle> ready;
    Cycle last = 0;
    for (unsigned i = 0; i < 64; ++i) {
        Cycle done = ms.load(0, Addr(i) * 0x80);
        // Data-ready times strictly increase: every miss occupies
        // its own slot and its own slice of DRAM bandwidth.
        EXPECT_GT(done, last);
        last = done;
        ready.push_back(done);
    }
    EXPECT_EQ(ms.stats().mshr_stalls, 64u - cfg.mshrs);

    // The occupancy bound holds at every instant; sample it at
    // cycle 0 and around every fill edge.
    EXPECT_LE(ms.mshrOccupancy(0), cfg.mshrs);
    for (Cycle r : ready) {
        EXPECT_LE(ms.mshrOccupancy(r - 1), cfg.mshrs);
        EXPECT_LE(ms.mshrOccupancy(r), cfg.mshrs);
    }

    // Occupancy decays back to zero as fills complete.
    EXPECT_EQ(ms.mshrOccupancy(last), 0u);
}

TEST(MemorySystem, MshrQueuedMissesSpreadAcrossSlots)
{
    // With 2 MSHRs and 4 misses at cycle 0, the 3rd and 4th must
    // start when the 1st and 2nd fill respectively — not both
    // behind the 1st (the earliest-slot bug).
    MemConfig cfg;
    cfg.mshrs = 2;
    DramBackend dram{DramConfig{}};
    MemorySystem ms(cfg, dram);
    Cycle f1 = ms.load(0, 0x000);
    Cycle f2 = ms.load(0, 0x080);
    Cycle f3 = ms.load(0, 0x100);
    Cycle f4 = ms.load(0, 0x180);
    Cycle lat = 3; // hit latency added on top of the fill
    EXPECT_GE(f3, f1 - lat + 330);  // waited for slot 1 to free
    EXPECT_GE(f4, f2 - lat + 330);  // waited for slot 2, not 1
    EXPECT_GT(f4, f3);
}

TEST(MemorySystem, InvalidateDropsResidency)
{
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    Cycle a = ms.load(0, 0x1000);
    ms.tick(a + 1);
    ms.invalidate(a + 1);
    Cycle b = ms.load(a + 1, 0x1000);
    EXPECT_GT(b, a + 1 + 3); // miss again
}

TEST(MemorySystem, InvalidateDrainsAtCurrentCycle)
{
    // The retroactive-drain bug: invalidate() issued the write
    // buffer's DRAM traffic at cycle 0, i.e. in the past, where it
    // consumed bandwidth for free. The drain must compete for
    // bandwidth from the invalidation cycle onward.
    MemConfig cfg;
    cfg.write_buffer_entries = 4;
    const Cycle t = 100'000;

    DramBackend drained_dram{DramConfig{}};
    MemorySystem drained(cfg, drained_dram);
    for (Addr b = 0; b < 4; ++b)
        drained.store(0, b * 0x80, 128);
    drained.invalidate(t);
    EXPECT_EQ(drained_dram.dramStats().transactions, 4u);
    u64 stall_before = drained_dram.dramStats().stall_tenths;
    Cycle after_drain = drained.load(t, 0x10000);

    DramBackend fresh_dram{DramConfig{}};
    MemorySystem fresh(cfg, fresh_dram);
    Cycle no_drain = fresh.load(t, 0x10000);

    // The drain booked the channel at t, so a load right behind it
    // queues; with the cycle-0 bug both loads would finish at the
    // same time.
    EXPECT_GT(after_drain, no_drain);
    EXPECT_GE(drained_dram.dramStats().stall_tenths, stall_before);
}

TEST(MemorySystem, BandwidthBoundStreaming)
{
    // Property: streaming N distinct blocks takes at least
    // N * 12.8 cycles of DRAM bandwidth.
    DramBackend dram{DramConfig{}};
    MemorySystem ms(MemConfig{}, dram);
    const unsigned n = 50;
    Cycle last = 0;
    for (unsigned i = 0; i < n; ++i)
        last = std::max(last, ms.load(0, Addr(i) * 128));
    EXPECT_GE(last, Cycle(n * 128 / 10));
}

} // namespace
} // namespace siwi::mem
