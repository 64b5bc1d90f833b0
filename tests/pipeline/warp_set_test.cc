/**
 * @file
 * WarpSet tests: iteration order, the cyclic fetch-cursor scan,
 * erasing the visited warp mid-scan, both scans against the member
 * list built from contains(), the set algebra and counts, and all of
 * it at the 1,024-warp capacity.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "pipeline/warp_set.hh"

namespace siwi::pipeline {
namespace {

std::vector<WarpId>
members(const WarpSet &s)
{
    std::vector<WarpId> out;
    s.forEach([&](WarpId w) { out.push_back(w); });
    return out;
}

std::vector<WarpId>
wrapped(const WarpSet &s, WarpId start)
{
    std::vector<WarpId> out;
    EXPECT_FALSE(s.forEachWrapped(start, [&](WarpId w) {
        out.push_back(w);
        return false;
    }));
    return out;
}

/** Every warp of an @p n-warp set, in it with odds 1 in @p keep. */
WarpSet
randomSet(unsigned n, Rng &rng, unsigned keep)
{
    WarpSet s(n);
    for (WarpId w = 0; w < n; ++w) {
        if (rng.below(keep) == 0)
            s.insert(w);
    }
    return s;
}

/** The members of @p s ascending, from contains() alone. */
std::vector<WarpId>
listed(const WarpSet &s, unsigned n)
{
    std::vector<WarpId> out;
    for (WarpId w = 0; w < n; ++w) {
        if (s.contains(w))
            out.push_back(w);
    }
    return out;
}

/** The cyclic order from @p start over an ascending list. */
std::vector<WarpId>
rotate(const std::vector<WarpId> &asc, WarpId start)
{
    std::vector<WarpId> out;
    for (WarpId w : asc) {
        if (w >= start)
            out.push_back(w);
    }
    for (WarpId w : asc) {
        if (w < start)
            out.push_back(w);
    }
    return out;
}

WarpSet
fullSet(unsigned n)
{
    WarpSet s(n);
    for (WarpId w = 0; w < n; ++w)
        s.insert(w);
    return s;
}

TEST(WarpSet, InsertEraseContains)
{
    WarpSet s(130);
    EXPECT_TRUE(members(s).empty());
    for (WarpId w : {0u, 63u, 64u, 129u})
        s.insert(w);
    s.insert(64); // idempotent
    EXPECT_TRUE(s.contains(63) && s.contains(64) && s.contains(129));
    EXPECT_FALSE(s.contains(1) || s.contains(65) || s.contains(128));
    s.erase(63);
    s.erase(62); // not a member: no-op
    EXPECT_EQ(members(s), (std::vector<WarpId>{0, 64, 129}));
    s.reset(130);
    EXPECT_TRUE(members(s).empty());
}

TEST(WarpSet, ForEachIsAscending)
{
    WarpSet s(200);
    for (WarpId w : {199u, 5u, 64u, 0u, 127u, 128u, 63u})
        s.insert(w);
    EXPECT_EQ(members(s),
              (std::vector<WarpId>{0, 5, 63, 64, 127, 128, 199}));
}

TEST(WarpSet, WrappedScanFromEdgeCursors)
{
    // Full sets and sparse random ones.
    Rng rng(7);
    for (unsigned n : {64u, 65u, 128u}) {
        for (unsigned keep : {1u, 2u, 3u}) {
            WarpSet s = keep == 1 ? fullSet(n) : randomSet(n, rng, keep);
            std::vector<WarpId> all = listed(s, n);
            for (WarpId start : {0u, 63u, 64u, n - 1}) {
                if (start >= n)
                    continue;
                SCOPED_TRACE(testing::Message()
                             << "n=" << n << " keep=" << keep
                             << " start=" << start);
                EXPECT_EQ(wrapped(s, start), rotate(all, start));
            }
        }
    }
}

TEST(WarpSet, WrappedScanStopsWhenAsked)
{
    WarpSet s = fullSet(128);
    std::vector<WarpId> seen;
    bool stopped = s.forEachWrapped(120, [&](WarpId w) {
        seen.push_back(w);
        return w == 2;
    });
    EXPECT_TRUE(stopped);
    std::vector<WarpId> want;
    for (WarpId w = 120; w < 128; ++w)
        want.push_back(w);
    want.insert(want.end(), {0, 1, 2});
    EXPECT_EQ(seen, want);
}

TEST(WarpSet, ErasingTheVisitedWarpMidScan)
{
    // Every scan may drop the warp it is visiting (the stages drop
    // a warp once it has nothing to do); the rest still come in
    // order.
    const unsigned n = 130;
    Rng rng(11);
    const WarpSet s0 = randomSet(n, rng, 2);
    const std::vector<WarpId> all = listed(s0, n);

    WarpSet s = s0;
    std::vector<WarpId> seen;
    s.forEach([&](WarpId w) {
        seen.push_back(w);
        s.erase(w);
    });
    EXPECT_EQ(seen, all);
    EXPECT_TRUE(members(s).empty());

    s = s0;
    seen.clear();
    s.forEachWrapped(70, [&](WarpId w) {
        seen.push_back(w);
        s.erase(w);
        return false;
    });
    EXPECT_EQ(seen, rotate(all, 70));
    EXPECT_TRUE(members(s).empty());
}

TEST(WarpSet, ScansMatchTheMemberList)
{
    Rng rng(3);
    for (unsigned n : {1u, 63u, 64u, 65u, 128u, 200u}) {
        for (int round = 0; round < 20; ++round) {
            WarpSet s = randomSet(n, rng, 1 + unsigned(round % 4));
            std::vector<WarpId> want = listed(s, n);
            EXPECT_EQ(members(s), want) << "forEach, n=" << n;

            WarpId start = WarpId(rng.below(n));
            EXPECT_EQ(wrapped(s, start), rotate(want, start))
                << "forEachWrapped, n=" << n << " start=" << start;
        }
    }
}

TEST(WarpSet, UnionAddsEveryMember)
{
    Rng rng(5);
    const unsigned n = 150;
    WarpSet a = randomSet(n, rng, 3), b = randomSet(n, rng, 3);
    WarpSet u = a;
    u |= b;
    for (WarpId w = 0; w < n; ++w)
        EXPECT_EQ(u.contains(w), a.contains(w) || b.contains(w)) << w;
}

TEST(WarpSet, IntersectionAndClear)
{
    Rng rng(7);
    const unsigned n = 150;
    WarpSet a = randomSet(n, rng, 2), b = randomSet(n, rng, 2);
    WarpSet i = a;
    i &= b;
    for (WarpId w = 0; w < n; ++w)
        EXPECT_EQ(i.contains(w), a.contains(w) && b.contains(w)) << w;
    i.reset(n);
    EXPECT_TRUE(members(i).empty());
    EXPECT_EQ(i.count(), 0u);
}

TEST(WarpSet, CountsMatchTheCyclicScan)
{
    // countWrapped(start, stop) is the number of members a cyclic
    // scan from start visits before it reaches stop.
    Rng rng(9);
    for (unsigned n : {1u, 63u, 64u, 65u, 128u, 200u}) {
        for (int round = 0; round < 20; ++round) {
            WarpSet s = randomSet(n, rng, 1 + unsigned(round % 4));
            EXPECT_EQ(s.count(), listed(s, n).size()) << "n=" << n;
            WarpId start = WarpId(rng.below(n));
            WarpId stop = WarpId(rng.below(n));
            unsigned before = 0;
            for (unsigned k = 0; k < n; ++k) {
                WarpId w = WarpId((start + k) % n);
                if (w == stop)
                    break;
                before += s.contains(w);
            }
            EXPECT_EQ(s.countWrapped(start, stop), before)
                << "n=" << n << " start=" << start << " stop=" << stop;
        }
    }
}

TEST(WarpSet, WorksAtCapacity)
{
    const unsigned n = WarpSet::capacity;
    ASSERT_EQ(n, 1024u);
    WarpSet s(n);
    s.insert(n - 1);
    EXPECT_TRUE(s.contains(n - 1));
    EXPECT_FALSE(s.contains(n - 2));
    EXPECT_EQ(members(s), (std::vector<WarpId>{n - 1}));
    s.erase(n - 1);
    EXPECT_FALSE(s.contains(n - 1));
    EXPECT_TRUE(members(s).empty());

    // Wrapped scans from both edge cursors, full and sparse.
    Rng rng(13);
    for (unsigned keep : {1u, 3u}) {
        WarpSet set = keep == 1 ? fullSet(n) : randomSet(n, rng, keep);
        set.insert(0);
        set.insert(n - 1);
        const std::vector<WarpId> all = listed(set, n);
        for (WarpId start : {0u, n - 1}) {
            SCOPED_TRACE(testing::Message()
                         << "keep=" << keep << " start=" << start);
            EXPECT_EQ(wrapped(set, start), rotate(all, start));
        }
        EXPECT_EQ(set.count(), all.size());
        // From the last warp, a wrapped count to warp 0 sees it alone.
        EXPECT_EQ(set.countWrapped(n - 1, 0), 1u);
        EXPECT_EQ(set.countWrapped(0, n - 1), all.size() - 1);
        EXPECT_EQ(set.countWrapped(n - 1, n - 1), 0u);
    }
}

TEST(WarpSet, CopyAssignAtCapacity)
{
    const unsigned n = WarpSet::capacity;
    Rng rng(17);
    WarpSet a = randomSet(n, rng, 2);
    a.insert(n - 1);
    WarpSet b = randomSet(n, rng, 2);
    const std::vector<WarpId> want = listed(a, n);
    b = a;
    EXPECT_EQ(listed(b, n), want);
    EXPECT_EQ(members(b), want);
    // The copy owns its words: changing it leaves the source alone.
    b.erase(n - 1);
    EXPECT_TRUE(a.contains(n - 1));
    EXPECT_EQ(listed(a, n), want);
}

TEST(WarpSetDeathTest, ResetPastCapacityPanics)
{
    WarpSet s;
    EXPECT_DEATH(s.reset(WarpSet::capacity + 1),
                 "a WarpSet holds at most 1024 warps, not 1025");
}

} // namespace
} // namespace siwi::pipeline
