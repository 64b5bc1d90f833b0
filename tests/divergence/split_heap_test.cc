/**
 * @file
 * Warp-split heap tests: splits, merges, spill/refill, promotion,
 * memory splits, barriers.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>

#include "common/rng.hh"
#include "divergence/split_heap.hh"

namespace siwi::divergence {
namespace {

SplitHeapConfig
cfg(unsigned cap = 8)
{
    SplitHeapConfig c;
    c.cct_capacity = cap;
    c.cct_steps_per_cycle = 64; // instant sorter unless testing it
    return c;
}

TEST(SplitHeap, InitialState)
{
    SplitHeap h(cfg(), LaneMask(0xff), 0);
    EXPECT_FALSE(h.done());
    ASSERT_NE(h.hotId(0), no_ctx);
    EXPECT_EQ(h.hotId(1), no_ctx);
    EXPECT_EQ(h.ctx(h.hotId(0)).pc, 0u);
    EXPECT_EQ(h.cpc1(), 0u);
    EXPECT_EQ(h.liveMask().bits(), 0xffull);
    EXPECT_EQ(h.liveContexts(), 1u);
}

TEST(SplitHeap, AdvanceMovesPc)
{
    SplitHeap h(cfg(), LaneMask(0xff), 0);
    u32 id = h.hotId(0);
    u32 v = h.ctx(id).version;
    h.advance(id, 1, 0);
    EXPECT_EQ(h.ctx(id).pc, 1u);
    EXPECT_NE(h.ctx(id).version, v);
}

TEST(SplitHeap, UniformBranch)
{
    SplitHeap h(cfg(), LaneMask(0xff), 0);
    u32 id = h.hotId(0);
    h.branchResolve(id, 10, LaneMask(0xff), 0, LaneMask{}, 0);
    EXPECT_EQ(h.ctx(id).pc, 10u);
    EXPECT_EQ(h.liveContexts(), 1u);
    EXPECT_EQ(h.stats().splits, 0u);
}

TEST(SplitHeap, DivergentBranchSplitsSorted)
{
    SplitHeap h(cfg(), LaneMask(0xff), 5);
    u32 id = h.hotId(0);
    // Taken {0..3} -> 20, fall {4..7} -> 6.
    h.branchResolve(id, 20, LaneMask(0x0f), 6, LaneMask(0xf0), 0);
    EXPECT_EQ(h.liveContexts(), 2u);
    EXPECT_EQ(h.stats().splits, 1u);
    // Hot slots sorted by PC.
    EXPECT_EQ(h.ctx(h.hotId(0)).pc, 6u);
    EXPECT_EQ(h.ctx(h.hotId(0)).mask.bits(), 0xf0ull);
    EXPECT_EQ(h.ctx(h.hotId(1)).pc, 20u);
    EXPECT_EQ(h.cpc1(), 6u);
}

TEST(SplitHeap, ReconvergenceMergesEqualPc)
{
    SplitHeap h(cfg(), LaneMask(0xff), 5);
    u32 id = h.hotId(0);
    h.branchResolve(id, 20, LaneMask(0x0f), 6, LaneMask(0xf0), 0);
    // Advance the low split to the high split's PC.
    u32 low = h.hotId(0);
    h.advance(low, 20, 1);
    EXPECT_EQ(h.liveContexts(), 1u);
    EXPECT_EQ(h.ctx(h.hotId(0)).mask.bits(), 0xffull);
    EXPECT_EQ(h.stats().merges, 1u);
}

TEST(SplitHeap, ThirdSplitSpillsToColdStore)
{
    SplitHeap h(cfg(), LaneMask(0xff), 0);
    u32 id = h.hotId(0);
    h.branchResolve(id, 10, LaneMask(0x0f), 1, LaneMask(0xf0), 0);
    u32 low = h.hotId(0); // pc 1
    h.branchResolve(low, 30, LaneMask(0x30), 2, LaneMask(0xc0), 1);
    EXPECT_EQ(h.liveContexts(), 3u);
    // Hot = two lowest (2, 10); 30 spilled cold.
    EXPECT_EQ(h.ctx(h.hotId(0)).pc, 2u);
    EXPECT_EQ(h.ctx(h.hotId(1)).pc, 10u);
    EXPECT_EQ(h.cpc1(), 2u);
}

TEST(SplitHeap, ColdContextRefillsEmptiedSlot)
{
    SplitHeap h(cfg(), LaneMask(0xff), 0);
    u32 id = h.hotId(0);
    h.branchResolve(id, 10, LaneMask(0x0f), 1, LaneMask(0xf0), 0);
    u32 low = h.hotId(0);
    h.branchResolve(low, 30, LaneMask(0x30), 2, LaneMask(0xc0), 1);
    // Exit the pc=2 split: the cold pc=30 context must come back.
    h.exitResolve(h.hotId(0), 2);
    h.tick(3);
    EXPECT_EQ(h.liveContexts(), 2u);
    EXPECT_EQ(h.ctx(h.hotId(0)).pc, 10u);
    EXPECT_EQ(h.ctx(h.hotId(1)).pc, 30u);
}

TEST(SplitHeap, ExitAllThreadsDone)
{
    SplitHeap h(cfg(), LaneMask(0xff), 0);
    h.exitResolve(h.hotId(0), 0);
    EXPECT_TRUE(h.done());
    EXPECT_TRUE(h.liveMask().none());
}

TEST(SplitHeap, CanSplitBoundedByCapacity)
{
    SplitHeap h(cfg(2), LaneMask(0xff), 0);
    // Split repeatedly; capacity 2+2.
    Pc pc = 0;
    unsigned safe = 0;
    while (h.canSplit() && safe < 16) {
        u32 hot = h.hotId(0);
        LaneMask m = h.ctx(hot).mask;
        if (m.count() < 2)
            break;
        LaneMask half(m.bits() & (m.bits() >> 1));
        // Take one lane off.
        LaneMask one = LaneMask::lane(m.first());
        h.branchResolve(hot, pc + 100, one, h.ctx(hot).pc + 1,
                        m & ~one, pc);
        ++pc;
        ++safe;
    }
    EXPECT_LE(h.liveContexts(), 4u);
    EXPECT_FALSE(h.canSplit());
}

TEST(SplitHeap, MemorySplitAdvancesSubset)
{
    SplitHeap h(cfg(), LaneMask(0xff), 7);
    u32 id = h.hotId(0);
    h.memorySplit(id, LaneMask(0x0f), 8, 0);
    EXPECT_EQ(h.liveContexts(), 2u);
    // Remaining lanes replay at 7; advanced lanes at 8.
    EXPECT_EQ(h.ctx(h.hotId(0)).pc, 7u);
    EXPECT_EQ(h.ctx(h.hotId(0)).mask.bits(), 0xf0ull);
    EXPECT_EQ(h.ctx(h.hotId(1)).pc, 8u);
    EXPECT_EQ(h.ctx(h.hotId(1)).mask.bits(), 0x0full);
    EXPECT_EQ(h.stats().splits, 1u);
}

TEST(SplitHeap, BarrierBlockedDoNotMergeWithArriving)
{
    SplitHeap h(cfg(), LaneMask(0xff), 5);
    u32 id = h.hotId(0);
    h.branchResolve(id, 9, LaneMask(0x0f), 6, LaneMask(0xf0), 0);
    // The pc=9 split arrives at a barrier.
    u32 at9 = h.hotId(1);
    h.ctxMut(at9).barrier_blocked = true;
    // The other split advances to 9 but must NOT merge.
    h.advance(h.hotId(0), 9, 1);
    EXPECT_EQ(h.liveContexts(), 2u);
    // Once it also blocks (arrival counted), both may merge.
    u32 other = h.hotId(0) == at9 ? h.hotId(1) : h.hotId(0);
    h.ctxMut(other).barrier_blocked = true;
    h.tick(2);
    EXPECT_EQ(h.liveContexts(), 1u);
    EXPECT_TRUE(h.ctx(h.hotId(0)).barrier_blocked);
    EXPECT_EQ(h.ctx(h.hotId(0)).mask.bits(), 0xffull);
}

TEST(SplitHeap, BarrierReleaseAdvancesAllBlocked)
{
    SplitHeap h(cfg(), LaneMask(0xff), 5);
    u32 id = h.hotId(0);
    h.branchResolve(id, 9, LaneMask(0x0f), 6, LaneMask(0xf0), 0);
    h.ctxMut(h.hotId(0)).barrier_blocked = true;
    h.ctxMut(h.hotId(1)).barrier_blocked = true;
    h.barrierRelease(1);
    for (unsigned s = 0; s < 2; ++s) {
        if (h.hotId(s) == no_ctx)
            continue;
        EXPECT_FALSE(h.ctx(h.hotId(s)).barrier_blocked);
    }
    EXPECT_EQ(h.cpc1(), 7u);
}

TEST(SplitHeap, PromotionRestoresHeapOrder)
{
    // Force a low-PC context into the CCT via a degraded insert,
    // then check the promotion rule swaps it back hot.
    SplitHeapConfig c;
    c.cct_capacity = 8;
    c.cct_steps_per_cycle = 1; // slow sorter: degraded pushes
    SplitHeap h(c, LaneMask(0xff), 50);
    u32 id = h.hotId(0);
    h.branchResolve(id, 60, LaneMask(0x0f), 51, LaneMask(0xf0), 0);
    // Split the low one twice in the same cycle window so inserts
    // collide in the sorter.
    u32 low = h.hotId(0);
    h.branchResolve(low, 70, LaneMask(0x10), 52, LaneMask(0xe0), 0);
    low = h.hotId(0);
    h.branchResolve(low, 40, LaneMask(0x20), 53, LaneMask(0xc0), 0);
    // A pc=40 context now exists; after ticks it must surface hot.
    for (Cycle t = 1; t < 10; ++t)
        h.tick(t);
    EXPECT_EQ(h.cpc1(), 40u);
    EXPECT_EQ(h.ctx(h.hotId(0)).pc, 40u);
}

TEST(SplitHeap, LiveMaskInvariantUnderChurn)
{
    // Property: no threads appear or disappear through split /
    // merge / spill / promote churn.
    SplitHeap h(cfg(4), LaneMask(0xffff), 0);
    Cycle t = 0;
    for (int round = 0; round < 40; ++round) {
        u32 hot = h.hotId(0);
        if (hot == no_ctx)
            break;
        LaneMask m = h.ctx(hot).mask;
        Pc pc = h.ctx(hot).pc;
        if (m.count() >= 2 && h.canSplit() && round % 3 != 2) {
            LaneMask one = LaneMask::lane(m.first());
            h.branchResolve(hot, pc + 3, one, pc + 1, m & ~one, t);
        } else {
            h.advance(hot, pc + 1, t);
        }
        h.tick(++t);
        EXPECT_EQ(h.liveMask().bits(), 0xffffull) << "round "
                                                  << round;
    }
}

/**
 * One seeded random call the pipeline could make in @p heaps' state
 * (which they share; the first one is read): a branch or EXIT
 * issue, its resolution, an advance, a memory split, a barrier
 * arrival or release, or a tick at a later @p now.
 */
void
randomCall(Rng &gen, Cycle &now, std::initializer_list<SplitHeap *> heaps)
{
    // Every random draw happens outside apply(), once for all heaps.
    auto apply = [&](auto &&call) {
        for (SplitHeap *h : heaps)
            call(*h);
    };
    const SplitHeap &h = **heaps.begin();
    const unsigned op = unsigned(gen.below(8));
    const u32 id = h.hotId(unsigned(gen.below(SplitHeap::num_hot)));
    if (op == 0 || id == no_ctx) {
        now += 1 + gen.below(3);
        apply([&](SplitHeap &x) { x.tick(now); });
        return;
    }
    const SplitContext c = h.ctx(id);
    const Pc next = c.pc + 1 + Pc(gen.below(3));
    const LaneMask part = c.mask & LaneMask(gen.next());
    const bool can_split = h.canSplit() && part.any() && part != c.mask;
    if (c.branch_pending) {
        // Resolve: exit, a uniform branch, or a divergent one.
        if (op == 1) {
            apply([&](SplitHeap &x) { x.exitResolve(id, now); });
        } else if (op < 5 || !can_split) {
            apply([&](SplitHeap &x) {
                x.branchResolve(id, c.pc + op, c.mask, 0, LaneMask{}, now);
            });
        } else {
            apply([&](SplitHeap &x) {
                x.branchResolve(id, c.pc + 4, part, c.pc + 1,
                                c.mask & ~part, now);
            });
        }
        return;
    }
    if (c.barrier_blocked) {
        apply([&](SplitHeap &x) { x.barrierRelease(now); });
        return;
    }
    switch (op) {
      case 1:
      case 2:
        apply([&](SplitHeap &x) { x.ctxMut(id).branch_pending = true; });
        break;
      case 3:
        apply([&](SplitHeap &x) { x.ctxMut(id).barrier_blocked = true; });
        break;
      case 4:
        if (can_split) {
            apply([&](SplitHeap &x) {
                x.memorySplit(id, part, c.pc + 1, now);
            });
            break;
        }
        [[fallthrough]];
      default:
        apply([&](SplitHeap &x) { x.advance(id, next, now); });
        break;
    }
}

/** Every observable of @p a equals @p b's (both built from @p c). */
void
expectSameHeap(const SplitHeap &a, const SplitHeap &b,
               const SplitHeapConfig &c, const std::string &where)
{
    SCOPED_TRACE(where);
    for (unsigned s = 0; s < SplitHeap::num_hot; ++s)
        EXPECT_EQ(a.hotId(s), b.hotId(s)) << "hot slot " << s;
    for (u32 id = 0; id < SplitHeap::num_hot + c.cct_capacity; ++id) {
        const SplitContext &x = a.ctx(id);
        const SplitContext &y = b.ctx(id);
        EXPECT_TRUE(x.pc == y.pc && x.mask == y.mask &&
                    x.valid == y.valid &&
                    x.branch_pending == y.branch_pending &&
                    x.barrier_blocked == y.barrier_blocked &&
                    x.version == y.version)
            << "context " << id;
    }
    EXPECT_EQ(a.stats().splits, b.stats().splits);
    EXPECT_EQ(a.stats().merges, b.stats().merges);
    EXPECT_EQ(a.stats().promotions, b.stats().promotions);
    EXPECT_EQ(a.stats().max_live_contexts, b.stats().max_live_contexts);
    EXPECT_EQ(a.cctStats().inserts, b.cctStats().inserts);
    EXPECT_EQ(a.cctStats().degraded_inserts,
              b.cctStats().degraded_inserts);
    EXPECT_EQ(a.cctStats().pops, b.cctStats().pops);
    EXPECT_EQ(a.cctStats().max_size, b.cctStats().max_size);
    EXPECT_EQ(a.cpc1(), b.cpc1());
    EXPECT_EQ(a.nextWake(), b.nextWake());
    EXPECT_EQ(a.quiescent(), b.quiescent());
    EXPECT_EQ(a.settled(), b.settled());
    EXPECT_EQ(a.done(), b.done());
}

TEST(SplitHeap, ResetMatchesFreshHeap)
{
    // A warp slot's heap is reset for each new CTA: it must then
    // behave exactly as a new heap, call for call, whatever ran in
    // it before.
    u64 splits = 0, merges = 0, promotions = 0, degraded = 0;
    unsigned finished = 0;
    for (unsigned steps : {1u, 64u}) {
        SplitHeapConfig c = cfg(4);
        c.cct_steps_per_cycle = steps; // 1: degraded inserts, folds
        Rng gen(900 + steps);
        SplitHeap used(c, LaneMask(0xffff), 0);
        Cycle now = 0;
        for (int cta = 0; cta < 20; ++cta) {
            for (int i = 0; i < 60 && !used.done(); ++i)
                randomCall(gen, now, {&used});
            const Pc entry = Pc(gen.below(4));
            used.reset(LaneMask(0xffff), entry);
            SplitHeap fresh(c, LaneMask(0xffff), entry);
            const std::string where = "steps " + std::to_string(steps) +
                                      ", CTA " + std::to_string(cta);
            expectSameHeap(used, fresh, c, where + " after reset");
            for (int i = 0; i < 60 && !fresh.done(); ++i) {
                randomCall(gen, now, {&fresh, &used});
                expectSameHeap(used, fresh, c,
                               where + ", call " + std::to_string(i));
            }
            ASSERT_FALSE(HasFailure());
            splits += fresh.stats().splits;
            merges += fresh.stats().merges;
            promotions += fresh.stats().promotions;
            degraded += fresh.cctStats().degraded_inserts;
            finished += fresh.done();
        }
    }
    // The sweep reaches the interesting cases.
    EXPECT_GT(splits, 100u);
    EXPECT_GT(merges, 50u);
    EXPECT_GT(promotions, 20u);
    EXPECT_GT(degraded, 15u);
    EXPECT_GT(finished, 3u);
}

} // namespace
} // namespace siwi::divergence
