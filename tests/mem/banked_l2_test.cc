/**
 * @file
 * BankedL2 unit tests: interleaving bijection, MSHR occupancy
 * bounds, NoC/channel contention, and the legacy-equivalence gate
 * (one slice + one channel + free interconnect == SharedL2,
 * bit-identically).
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "mem/banked_l2.hh"

namespace siwi::mem {
namespace {

constexpr u32 blk = 128;

/**
 * Any aligned window of slices*channels consecutive blocks must
 * cover every (slice, channel) pair exactly once — that is what
 * makes strided streams spread over both levels. Swept over
 * topologies and window positions, including strides: a stream of
 * stride S*C lands every element on the same pair, a stride-1
 * stream round-robins over all of them.
 */
TEST(BankedL2Interleave, WindowOfBlocksIsABijection)
{
    for (u32 slices : {1u, 2u, 4u, 8u}) {
        for (u32 channels : {1u, 2u, 4u}) {
            const u32 window = slices * channels;
            for (u64 base : {u64(0), u64(7), u64(1000),
                             u64(123456)}) {
                std::set<std::pair<u32, u32>> seen;
                for (u64 i = 0; i < window; ++i) {
                    Addr block = Addr((base * window + i) * blk);
                    u32 s = BankedL2::sliceOf(block, blk, slices);
                    u32 c = BankedL2::channelOf(block, blk,
                                                slices, channels);
                    ASSERT_LT(s, slices);
                    ASSERT_LT(c, channels);
                    seen.insert({s, c});
                }
                EXPECT_EQ(seen.size(), size_t(window))
                    << slices << "x" << channels << " @" << base;
            }
        }
    }
}

/** Strided sweeps stay balanced across slices (no bank camping). */
TEST(BankedL2Interleave, PowerOfTwoStridesStayBalanced)
{
    const u32 slices = 4;
    for (u32 stride : {1u, 2u, 4u, 8u, 16u}) {
        std::vector<unsigned> per_slice(slices, 0);
        const unsigned n = 256;
        for (unsigned i = 0; i < n; ++i) {
            Addr block = Addr(u64(i) * stride * blk);
            per_slice[BankedL2::sliceOf(block, blk, slices)]++;
        }
        for (u32 s = 0; s < slices; ++s)
            EXPECT_EQ(per_slice[s], n / slices)
                << "stride " << stride << " slice " << s;
    }
}

/** Randomized request stream shared by the equivalence tests. */
struct Req
{
    Cycle when;
    bool is_read;
    Addr block;
    u32 bytes;
};

std::vector<Req>
randomStream(Rng &rng, unsigned count)
{
    std::vector<Req> reqs;
    Cycle now = 0;
    for (unsigned i = 0; i < count; ++i) {
        now += rng.below(40);
        reqs.push_back({now, rng.below(3) != 0,
                        Addr(rng.below(64)) * blk,
                        blk >> rng.below(2)});
    }
    return reqs;
}

/**
 * The bit-identity gate behind the committed multi-SM baselines:
 * one slice, one channel, no MSHR file, no tag pipe and a free
 * interconnect must reproduce SharedL2's returned cycles and
 * statistics exactly, call for call.
 */
TEST(BankedL2, DefaultTopologyMatchesSharedL2BitExactly)
{
    Rng rng(7);
    for (int round = 0; round < 20; ++round) {
        L2Config l2;
        l2.size_bytes = 16 * 1024;
        l2.hit_latency = 1 + rng.below(40);
        DramConfig dram;
        dram.latency_cycles = 5 + rng.below(300);
        dram.bytes_per_cycle_x10 = 5 + rng.below(200);
        SharedL2 ref(l2, blk, dram);
        BankedL2 banked(l2, blk, dram, NocConfig{}, 4);

        for (const Req &r : randomStream(rng, 200)) {
            unsigned port = unsigned(r.block / blk) % 4;
            if (r.is_read) {
                EXPECT_EQ(ref.read(r.when, r.block, r.bytes, 0),
                          banked.read(r.when, r.block, r.bytes,
                                      port))
                    << "round " << round << " cycle " << r.when;
            } else {
                ref.write(r.when, r.block, r.bytes, 0);
                banked.write(r.when, r.block, r.bytes, port);
            }
        }
        EXPECT_EQ(ref.stats(), banked.stats());
        EXPECT_EQ(ref.dramStats(), banked.dramStats());
    }
}

/** Per-slice and per-channel breakdowns must sum to the totals. */
TEST(BankedL2, BreakdownsSumToTotals)
{
    L2Config l2;
    l2.size_bytes = 64 * 1024;
    l2.slices = 4;
    l2.mshrs_per_slice = 4;
    l2.tag_cycles = 1;
    DramConfig dram;
    dram.channels = 2;
    NocConfig noc;
    noc.port_bytes_per_cycle_x10 = 80;
    BankedL2 banked(l2, blk, dram, noc, 2);

    Rng rng(11);
    for (const Req &r : randomStream(rng, 400)) {
        unsigned port = unsigned(r.block / blk) % 2;
        if (r.is_read)
            banked.read(r.when, r.block, r.bytes, port);
        else
            banked.write(r.when, r.block, r.bytes, port);
    }

    L2SliceStats sum;
    for (u32 s = 0; s < banked.numSlices(); ++s) {
        sum.hits += banked.sliceStats(s).hits;
        sum.misses += banked.sliceStats(s).misses;
        sum.writes += banked.sliceStats(s).writes;
    }
    EXPECT_EQ(sum.hits, banked.stats().hits);
    EXPECT_EQ(sum.misses, banked.stats().misses);
    EXPECT_EQ(sum.writes, banked.stats().writes);
    EXPECT_GT(banked.stats().hits + banked.stats().misses, 0u);

    u64 tx = 0, bytes = 0;
    for (u32 c = 0; c < banked.numChannels(); ++c) {
        tx += banked.channelStats(c).transactions;
        bytes += banked.channelStats(c).bytes;
        EXPECT_GT(banked.channelStats(c).transactions, 0u)
            << "channel " << c << " never used";
    }
    EXPECT_EQ(tx, banked.dramStats().transactions);
    EXPECT_EQ(bytes, banked.dramStats().bytes);
}

/**
 * Slice MSHR occupancy never exceeds the configured capacity, and
 * a full file makes later misses wait (mshr_stalls counted).
 */
TEST(BankedL2, SliceMshrOccupancyNeverExceedsCapacity)
{
    L2Config l2;
    l2.size_bytes = 16 * 1024;
    l2.slices = 2;
    l2.mshrs_per_slice = 2;
    DramConfig dram;
    dram.latency_cycles = 200;
    dram.bytes_per_cycle_x10 = 10;
    BankedL2 banked(l2, blk, dram, NocConfig{}, 1);

    // A burst of distinct-block misses, all at cycle 0.
    Cycle last_ready = 0;
    for (unsigned i = 0; i < 12; ++i) {
        Cycle ready =
            banked.read(0, Addr(i) * blk, blk, 0);
        EXPECT_GE(ready, last_ready);
        last_ready = ready;
    }
    u64 stalls = 0;
    for (u32 s = 0; s < banked.numSlices(); ++s)
        stalls += banked.sliceStats(s).mshr_stalls;
    EXPECT_GT(stalls, 0u);
    for (Cycle c = 0; c <= last_ready + 1; ++c) {
        for (u32 s = 0; s < banked.numSlices(); ++s)
            ASSERT_LE(banked.sliceMshrOccupancy(s, c),
                      l2.mshrs_per_slice)
                << "slice " << s << " cycle " << c;
    }
    // Everything drains eventually.
    for (u32 s = 0; s < banked.numSlices(); ++s)
        EXPECT_EQ(banked.sliceMshrOccupancy(s, last_ready + 1),
                  0u);
}

/**
 * Same-block requests merge onto the outstanding fill instead of
 * issuing a second channel transfer.
 */
TEST(BankedL2, InFlightMissesMergeSameBlockRequests)
{
    L2Config l2;
    l2.size_bytes = 16 * 1024;
    l2.mshrs_per_slice = 8;
    DramConfig dram;
    dram.latency_cycles = 300;
    BankedL2 banked(l2, blk, dram, NocConfig{}, 1);

    Cycle first = banked.read(0, 0, blk, 0);
    Cycle second = banked.read(1, 0, blk, 0);
    EXPECT_EQ(first, second);
    EXPECT_EQ(banked.sliceStats(0).mshr_merges, 1u);
    EXPECT_EQ(banked.dramStats().transactions, 1u);
}

/**
 * A bounded channel queue pushes a deep burst's start times back
 * (queue_full_stall_tenths) relative to an unbounded queue.
 */
TEST(BankedL2, ChannelQueueDepthThrottlesDeepBursts)
{
    L2Config l2;
    l2.size_bytes = 16 * 1024;
    // Latency far above the per-transfer bandwidth time, so the
    // flat-latency window (not the pipe) is what backs up a
    // 2-deep queue.
    DramConfig unbounded;
    unbounded.latency_cycles = 100;
    unbounded.bytes_per_cycle_x10 = 100;
    DramConfig bounded = unbounded;
    bounded.queue_depth = 2;
    BankedL2 free_q(l2, blk, unbounded, NocConfig{}, 1);
    BankedL2 tight_q(l2, blk, bounded, NocConfig{}, 1);

    Cycle free_last = 0, tight_last = 0;
    for (unsigned i = 0; i < 8; ++i) {
        free_last = free_q.read(0, Addr(i) * blk, blk, 0);
        tight_last = tight_q.read(0, Addr(i) * blk, blk, 0);
        EXPECT_GE(tight_last, free_last);
    }
    EXPECT_GT(tight_last, free_last);
    EXPECT_EQ(free_q.dramStats().queue_full_stall_tenths, 0u);
    EXPECT_GT(tight_q.dramStats().queue_full_stall_tenths, 0u);
}

/**
 * Port injection bandwidth serializes one SM's transfers while
 * leaving another SM's port untouched.
 */
TEST(BankedL2, PortBandwidthSerializesPerPort)
{
    L2Config l2;
    l2.size_bytes = 16 * 1024;
    DramConfig dram;
    NocConfig noc;
    noc.port_bytes_per_cycle_x10 = 10; // 1 byte/cycle: very tight
    BankedL2 banked(l2, blk, dram, noc, 2);

    // Warm the tags so the timed reads below are hits: hits never
    // touch the shared channel, isolating the port pipe.
    banked.read(0, 0 * blk, blk, 0);
    banked.read(0, 1 * blk, blk, 0);
    banked.read(0, 2 * blk, blk, 1);

    Cycle a = banked.read(10000, 0 * blk, blk, 0);
    Cycle b = banked.read(10000, 1 * blk, blk, 0);
    Cycle c = banked.read(10000, 2 * blk, blk, 1);
    // Same port: the second transfer waits ~128 cycles behind the
    // first; a fresh port sees no serialization at all.
    EXPECT_GT(b, a);
    EXPECT_EQ(c, a);
    EXPECT_GT(banked.portStats(0).stall_tenths, 0u);
    EXPECT_EQ(banked.portStats(1).stall_tenths, 0u);
    EXPECT_EQ(banked.portStats(0).requests, 4u);
    EXPECT_EQ(banked.portStats(1).requests, 2u);
}

/**
 * The NoC latency legs add to every access, hit or miss, and the
 * tag pipe serializes back-to-back lookups on one slice.
 */
TEST(BankedL2, NocLatencyAndTagPipeAddCycles)
{
    L2Config l2;
    l2.size_bytes = 16 * 1024;
    l2.hit_latency = 10;
    DramConfig dram;
    BankedL2 plain(l2, blk, dram, NocConfig{}, 1);
    NocConfig noc;
    noc.request_latency = 3;
    noc.response_latency = 4;
    BankedL2 routed(l2, blk, dram, noc, 1);

    EXPECT_EQ(routed.read(0, 0, blk, 0),
              plain.read(0, 0, blk, 0) + 3 + 4);

    // Tag pipe: two same-cycle hits to one slice serialize.
    L2Config piped = l2;
    piped.tag_cycles = 2;
    BankedL2 serial(piped, blk, dram, NocConfig{}, 1);
    serial.read(0, 0, blk, 0); // install
    Cycle h1 = serial.read(100, 0, blk, 0);
    Cycle h2 = serial.read(100, 0, blk, 0);
    EXPECT_EQ(h2, h1 + piped.tag_cycles);
    EXPECT_GT(serial.sliceStats(0).tag_stall_cycles, 0u);
}

/** invalidate() drops tags and forgets in-flight fills. */
TEST(BankedL2, InvalidateDropsTagsAndInflight)
{
    L2Config l2;
    l2.size_bytes = 16 * 1024;
    l2.slices = 2;
    l2.mshrs_per_slice = 4;
    DramConfig dram;
    dram.latency_cycles = 500;
    BankedL2 banked(l2, blk, dram, NocConfig{}, 1);

    banked.read(0, 0, blk, 0);
    banked.read(0, blk, blk, 0);
    banked.invalidate();
    for (u32 s = 0; s < banked.numSlices(); ++s)
        EXPECT_EQ(banked.sliceMshrOccupancy(s, 1), 0u);
}

} // namespace
} // namespace siwi::mem
