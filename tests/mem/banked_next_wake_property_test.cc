/**
 * @file
 * Property tests for MemorySystem::nextWake in front of the banked
 * chip backend: the mirror of next_wake_property_test.cc with a
 * BankedL2 (per-slice MSHR files, bounded channel queues, a
 * contended NoC) behind the MemorySystem instead of the private
 * DRAM pipe.
 *
 * The backend contributes no wake bound, and needs none. It is
 * passive (the MemoryBackend contract): its per-slice MSHR entries
 * are consulted only inside read()/write(), against the request's
 * own time, so a slice's occupancy may change while the SM sleeps
 * without anything the SM can see changing. Everything the SM can
 * observe of the backend is the fill cycle read() returned, which
 * the MemorySystem keeps in its own MSHR file and folds into its
 * bound. Checked two ways: lazy ticking at the reported bounds must
 * be indistinguishable from eager per-cycle ticking (every returned
 * latency, the L1 and slice MSHR occupancy on every cycle, and the
 * slice, channel and port statistics), and the L1 state may not
 * change strictly before the reported wake.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "mem/banked_l2.hh"
#include "mem/memory_system.hh"

namespace siwi::mem {
namespace {

struct ChipConfig
{
    MemConfig mem;
    L2Config l2;
    DramConfig dram;
    NocConfig noc;
};

ChipConfig
randomConfig(Rng &rng)
{
    ChipConfig c;
    c.mem.l1.size_bytes = 128 * (8u << rng.below(4));
    c.mem.l1.block_bytes = 128;
    c.mem.l1.ways = 2;
    c.mem.l1.hit_latency = 1 + rng.below(6);
    c.mem.mshrs = 1 + rng.below(8);
    c.mem.write_buffer_entries = 1 + rng.below(8);
    c.l2.size_bytes = 16 * 1024;
    c.l2.hit_latency = 1 + rng.below(30);
    c.l2.slices = 1u << rng.below(3);
    // Tiny MSHR files force slot waits (queued-but-unissued
    // channel requests), the interesting case for the bound.
    c.l2.mshrs_per_slice = 1 + rng.below(4);
    c.l2.tag_cycles = rng.below(3);
    c.dram.latency_cycles = 5 + rng.below(400);
    c.dram.bytes_per_cycle_x10 = 5 + rng.below(200);
    c.dram.channels = 1u << rng.below(2);
    c.dram.queue_depth = rng.below(5);
    c.noc.request_latency = rng.below(4);
    c.noc.response_latency = rng.below(4);
    c.noc.port_bytes_per_cycle_x10 =
        rng.below(2) ? 0 : 40 + rng.below(200);
    return c;
}

struct Req
{
    Cycle when;
    bool is_load;
    Addr block;
};

std::vector<Req>
randomStream(Rng &rng, unsigned count, Cycle span)
{
    std::vector<Req> reqs;
    reqs.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        Req r;
        r.when = rng.below(u32(span));
        r.is_load = rng.below(3) != 0;
        r.block = Addr(rng.below(12)) * 128;
        reqs.push_back(r);
    }
    std::sort(reqs.begin(), reqs.end(),
              [](const Req &a, const Req &b) {
                  return a.when < b.when;
              });
    return reqs;
}

/**
 * Lazy ticking at the reported wake bounds only must be
 * observationally identical to eager per-cycle ticking: every
 * returned latency, the L1 MSHR occupancy and every slice's MSHR
 * occupancy on every cycle, and the backend's slice, channel and
 * port statistics.
 */
TEST(BankedNextWakeProperty, LazyTickMatchesEagerTick)
{
    Rng rng(3);
    for (int round = 0; round < 50; ++round) {
        ChipConfig cfg = randomConfig(rng);
        const u32 blk = cfg.mem.l1.block_bytes;
        BankedL2 eager_l2(cfg.l2, blk, cfg.dram, cfg.noc, 1);
        BankedL2 lazy_l2(cfg.l2, blk, cfg.dram, cfg.noc, 1);
        MemorySystem eager(cfg.mem, eager_l2, 0);
        MemorySystem lazy(cfg.mem, lazy_l2, 0);
        std::vector<Req> reqs = randomStream(
            rng, 40, 2000 + rng.below(2000));

        size_t next = 0;
        const Cycle horizon = reqs.back().when + 3000;
        for (Cycle c = 0; c < horizon; ++c) {
            eager.tick(c);
            if (lazy.nextWake(c) <= c)
                lazy.tick(c);
            EXPECT_EQ(eager.mshrOccupancy(c), lazy.mshrOccupancy(c))
                << "round " << round << " cycle " << c;
            for (u32 s = 0; s < eager_l2.numSlices(); ++s) {
                EXPECT_EQ(eager_l2.sliceMshrOccupancy(s, c),
                          lazy_l2.sliceMshrOccupancy(s, c))
                    << "round " << round << " cycle " << c
                    << " slice " << s;
            }
            while (next < reqs.size() && reqs[next].when == c) {
                const Req &r = reqs[next++];
                if (r.is_load) {
                    EXPECT_EQ(eager.load(c, r.block),
                              lazy.load(c, r.block))
                        << "round " << round << " cycle " << c;
                } else {
                    EXPECT_EQ(eager.store(c, r.block, 128),
                              lazy.store(c, r.block, 128))
                        << "round " << round << " cycle " << c;
                }
            }
        }
        EXPECT_EQ(eager.stats().mshr_stalls,
                  lazy.stats().mshr_stalls);
        EXPECT_EQ(eager.cacheStats().hits,
                  lazy.cacheStats().hits);
        EXPECT_EQ(eager.cacheStats().misses,
                  lazy.cacheStats().misses);
        EXPECT_EQ(eager_l2.stats(), lazy_l2.stats());
        EXPECT_EQ(eager_l2.dramStats(), lazy_l2.dramStats());
        for (u32 s = 0; s < eager_l2.numSlices(); ++s)
            EXPECT_EQ(eager_l2.sliceStats(s),
                      lazy_l2.sliceStats(s))
                << "round " << round << " slice " << s;
        for (u32 ch = 0; ch < eager_l2.numChannels(); ++ch)
            EXPECT_EQ(eager_l2.channelStats(ch),
                      lazy_l2.channelStats(ch))
                << "round " << round << " channel " << ch;
        EXPECT_EQ(eager_l2.portStats(0), lazy_l2.portStats(0))
            << "round " << round;
    }
}

/**
 * The bound is never late: after arbitrary traffic, the L1 MSHR
 * occupancy may not change on a cycle strictly before nextWake().
 * The wake chain must make strict progress and drain both levels:
 * every slice fill backs an L1 fill of the SM that asked for it,
 * so once the L1 fills have retired no slice fill is pending.
 */
TEST(BankedNextWakeProperty, WakeNeverLaterThanFirstChange)
{
    Rng rng(4);
    for (int round = 0; round < 50; ++round) {
        ChipConfig cfg = randomConfig(rng);
        BankedL2 l2(cfg.l2, cfg.mem.l1.block_bytes, cfg.dram,
                    cfg.noc, 1);
        MemorySystem sys(cfg.mem, l2, 0);
        std::vector<Req> reqs = randomStream(rng, 30, 1500);

        Cycle now = 0;
        for (const Req &r : reqs) {
            for (; now <= r.when; ++now)
                sys.tick(now);
            if (r.is_load)
                sys.load(r.when, r.block);
            else
                sys.store(r.when, r.block, 128);
        }

        auto sliceOcc = [&](Cycle c) {
            std::vector<unsigned> occ;
            for (u32 s = 0; s < l2.numSlices(); ++s)
                occ.push_back(l2.sliceMshrOccupancy(s, c));
            return occ;
        };

        Cycle wake = sys.nextWake(now);
        if (wake == no_wake) {
            EXPECT_EQ(sys.mshrOccupancy(now), 0u);
            for (unsigned o : sliceOcc(now))
                EXPECT_EQ(o, 0u);
            continue;
        }
        ASSERT_GE(wake, now);
        unsigned occ = sys.mshrOccupancy(now);
        for (Cycle c = now; c < wake; ++c) {
            sys.tick(c);
            EXPECT_EQ(sys.mshrOccupancy(c), occ)
                << "round " << round << ": L1 state changed at "
                << c << " before the reported wake " << wake;
        }
        unsigned hops = 0;
        Cycle last = wake;
        while (wake != no_wake) {
            ASSERT_LT(++hops, 10000u) << "wake chain diverges";
            sys.tick(wake);
            last = wake;
            Cycle next_wake = sys.nextWake(wake);
            ASSERT_TRUE(next_wake == no_wake || next_wake > wake)
                << "round " << round << ": wake chain stuck at "
                << wake;
            wake = next_wake;
        }
        EXPECT_EQ(sys.mshrOccupancy(last + 1), 0u)
            << "round " << round
            << ": L1 fills stranded after the wake chain drained";
        for (unsigned o : sliceOcc(last + 1))
            EXPECT_EQ(o, 0u)
                << "round " << round
                << ": slice fills stranded after the wake chain "
                   "drained";
    }
}

} // namespace
} // namespace siwi::mem
