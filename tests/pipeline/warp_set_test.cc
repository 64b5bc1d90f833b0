/**
 * @file
 * WarpSet tests: iteration order, the cyclic fetch-cursor scan,
 * erasing the visited warp mid-scan, and the intersection scans
 * against the materialized intersection.
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
wrapped(const WarpSet &a, const WarpSet &b, WarpId start)
{
    std::vector<WarpId> out;
    EXPECT_FALSE(a.forEachWrappedAnd(b, start, [&](WarpId w) {
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

/** a ∩ b built one warp at a time, from contains() alone. */
WarpSet
intersection(const WarpSet &a, const WarpSet &b, unsigned n)
{
    WarpSet m(n);
    for (WarpId w = 0; w < n; ++w) {
        if (a.contains(w) && b.contains(w))
            m.insert(w);
    }
    return m;
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
    // Full sets and sparse random ones, through both a full mask
    // (the plain cyclic scan) and a random one.
    Rng rng(7);
    for (unsigned n : {64u, 65u, 128u}) {
        for (unsigned keep : {1u, 3u}) {
            WarpSet a = keep == 1 ? fullSet(n) : randomSet(n, rng, keep);
            for (const WarpSet &b : {fullSet(n), randomSet(n, rng, 2)}) {
                std::vector<WarpId> both =
                    members(intersection(a, b, n));
                for (WarpId start : {0u, 63u, 64u, n - 1}) {
                    if (start >= n)
                        continue;
                    SCOPED_TRACE(testing::Message()
                                 << "n=" << n << " keep=" << keep
                                 << " start=" << start);
                    EXPECT_EQ(wrapped(a, b, start),
                              rotate(both, start));
                }
            }
        }
    }
}

TEST(WarpSet, WrappedScanStopsWhenAsked)
{
    WarpSet s = fullSet(128);
    std::vector<WarpId> seen;
    bool stopped = s.forEachWrappedAnd(s, 120, [&](WarpId w) {
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
    WarpSet a0 = randomSet(n, rng, 2), b = randomSet(n, rng, 2);
    std::vector<WarpId> a_all = members(a0);
    std::vector<WarpId> both = members(intersection(a0, b, n));

    WarpSet a = a0;
    std::vector<WarpId> seen;
    a.forEach([&](WarpId w) {
        seen.push_back(w);
        a.erase(w);
    });
    EXPECT_EQ(seen, a_all);
    EXPECT_TRUE(members(a).empty());

    // From the receiver and from the other set of an intersection.
    for (bool from_b : {false, true}) {
        a = a0;
        WarpSet bb = b;
        seen.clear();
        a.forEachAnd(bb, [&](WarpId w) {
            seen.push_back(w);
            (from_b ? bb : a).erase(w);
        });
        EXPECT_EQ(seen, both);
        EXPECT_TRUE(members(intersection(a, bb, n)).empty());
    }

    a = a0;
    seen.clear();
    a.forEachWrappedAnd(b, 70, [&](WarpId w) {
        seen.push_back(w);
        a.erase(w);
        return false;
    });
    EXPECT_EQ(seen, rotate(both, 70));
    EXPECT_TRUE(members(intersection(a, b, n)).empty());
}

TEST(WarpSet, IntersectionScansMatchTheMaterializedIntersection)
{
    Rng rng(3);
    for (unsigned n : {1u, 63u, 64u, 65u, 128u, 200u}) {
        for (int round = 0; round < 20; ++round) {
            WarpSet a = randomSet(n, rng, 1 + unsigned(round % 4));
            WarpSet b = randomSet(n, rng, 1 + unsigned(round % 3));
            std::vector<WarpId> want = members(intersection(a, b, n));

            std::vector<WarpId> got;
            a.forEachAnd(b, [&](WarpId w) { got.push_back(w); });
            EXPECT_EQ(got, want) << "forEachAnd, n=" << n;

            WarpId start = WarpId(rng.below(n));
            EXPECT_EQ(wrapped(a, b, start), rotate(want, start))
                << "forEachWrappedAnd, n=" << n << " start=" << start;
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

} // namespace
} // namespace siwi::pipeline
