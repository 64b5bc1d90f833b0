/**
 * @file
 * Property tests for MemorySystem::nextWake.
 *
 * The skip loop relies on two promises: (1) ticking only at the
 * reported wake bounds is indistinguishable from ticking every
 * cycle, for every observable (load latencies, MSHR occupancy,
 * statistics); (2) the bound is never late — nothing observable
 * changes strictly before it. Both are checked here against a
 * cycle-by-cycle oracle over randomized request streams and
 * machine geometries (tiny MSHR counts force stalls, small write
 * buffers force drains).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hh"
#include "mem/memory_system.hh"

namespace siwi::mem {
namespace {

/** An SM's memory system and the private channel behind it. */
struct PrivateMemConfig
{
    MemConfig mem;
    DramConfig dram;
};

PrivateMemConfig
randomConfig(Rng &rng)
{
    PrivateMemConfig cfg;
    cfg.mem.l1.size_bytes = 128 * (8u << rng.below(4));
    cfg.mem.l1.block_bytes = 128;
    cfg.mem.l1.ways = 2;
    cfg.mem.l1.hit_latency = 1 + rng.below(6);
    cfg.dram.latency_cycles = 5 + rng.below(400);
    cfg.dram.bytes_per_cycle_x10 = 5 + rng.below(200);
    cfg.mem.mshrs = 1 + rng.below(8);
    cfg.mem.write_buffer_entries = 1 + rng.below(8);
    return cfg;
}

/** One randomized request: a load or store at a given cycle. */
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
        // A small block pool provokes merges, forwards and reuse.
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
 * observationally identical to eager per-cycle ticking.
 */
TEST(MemNextWakeProperty, LazyTickMatchesEagerTick)
{
    Rng rng(1);
    for (int round = 0; round < 50; ++round) {
        PrivateMemConfig cfg = randomConfig(rng);
        DramBackend eager_dram(cfg.dram);
        DramBackend lazy_dram(cfg.dram);
        MemorySystem eager(cfg.mem, eager_dram);
        MemorySystem lazy(cfg.mem, lazy_dram);
        std::vector<Req> reqs = randomStream(
            rng, 40, 2000 + rng.below(2000));

        size_t next = 0;
        const Cycle horizon = reqs.back().when + 3000;
        for (Cycle c = 0; c < horizon; ++c) {
            eager.tick(c);
            // The lazy twin ticks only when its own estimate says
            // this cycle can change something.
            if (lazy.nextWake(c) <= c)
                lazy.tick(c);
            EXPECT_EQ(eager.mshrOccupancy(c), lazy.mshrOccupancy(c))
                << "round " << round << " cycle " << c;
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
        EXPECT_EQ(eager.stats().write_forwards,
                  lazy.stats().write_forwards);
        EXPECT_EQ(eager.cacheStats().hits,
                  lazy.cacheStats().hits);
        EXPECT_EQ(eager.cacheStats().misses,
                  lazy.cacheStats().misses);
    }
}

/**
 * The bound is never late: after arbitrary traffic, nothing
 * observable may change on any cycle strictly before nextWake().
 * The wake chain must also make strict progress (each tick at a
 * reported wake pushes the next bound strictly later) and drain
 * to no_wake with empty MSHRs — a too-early bound would spin, a
 * too-late one would strand fills.
 */
TEST(MemNextWakeProperty, WakeNeverLaterThanFirstChange)
{
    Rng rng(2);
    for (int round = 0; round < 50; ++round) {
        PrivateMemConfig cfg = randomConfig(rng);
        DramBackend dram(cfg.dram);
        MemorySystem sys(cfg.mem, dram);
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

        Cycle wake = sys.nextWake(now);
        if (wake == no_wake) {
            // Nothing in flight: occupancy must already be zero
            // and stay zero forever.
            EXPECT_EQ(sys.mshrOccupancy(now), 0u);
            continue;
        }
        ASSERT_GE(wake, now);
        unsigned occ = sys.mshrOccupancy(now);
        for (Cycle c = now; c < wake; ++c) {
            sys.tick(c);
            EXPECT_EQ(sys.mshrOccupancy(c), occ)
                << "round " << round
                << ": state changed at " << c
                << " before the reported wake " << wake;
        }
        // Follow the wake chain: strictly increasing (a queued
        // miss promoted into the slot freed at the wake may keep
        // occupancy flat, but the next bound must move) and
        // finite, ending with every MSHR drained.
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
            << ": fills stranded after the wake chain drained";
    }
}

} // namespace
} // namespace siwi::mem
