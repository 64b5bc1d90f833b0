/**
 * @file
 * HCT sorter network tests (paper Figure 5(b)): sort, compact,
 * merge, spill, including a parameterized sweep over input
 * orderings.
 */

#include <gtest/gtest.h>

#include <vector>

#include "divergence/hct.hh"

namespace siwi::divergence {
namespace {

SorterEntry
entry(Pc pc, u64 mask, u32 id, bool pinned = false,
      bool barrier = false)
{
    SorterEntry e;
    e.pc = pc;
    e.mask = LaneMask(mask);
    e.valid = true;
    e.pinned = pinned;
    e.barrier = barrier;
    e.id = id;
    return e;
}

TEST(HctSorter, EmptyInputs)
{
    SorterResult r = hctSort({}, {}, {});
    EXPECT_FALSE(r.hot[0].valid);
    EXPECT_FALSE(r.hot[1].valid);
    EXPECT_FALSE(r.spill.valid);
    EXPECT_TRUE(r.want_pop);
}

TEST(HctSorter, SingleEntryWantsPop)
{
    SorterResult r = hctSort(entry(5, 0xf, 1), {}, {});
    EXPECT_TRUE(r.hot[0].valid);
    EXPECT_EQ(r.hot[0].pc, 5u);
    EXPECT_FALSE(r.hot[1].valid);
    EXPECT_TRUE(r.want_pop);
}

TEST(HctSorter, TwoEntriesSorted)
{
    SorterResult r = hctSort(entry(9, 0x1, 1), entry(3, 0x2, 2), {});
    EXPECT_EQ(r.hot[0].pc, 3u);
    EXPECT_EQ(r.hot[1].pc, 9u);
    EXPECT_FALSE(r.want_pop);
    EXPECT_FALSE(r.spill.valid);
}

TEST(HctSorter, ThreeEntriesSpillHighest)
{
    SorterResult r = hctSort(entry(9, 0x1, 1), entry(3, 0x2, 2),
                             entry(6, 0x4, 3));
    EXPECT_EQ(r.hot[0].pc, 3u);
    EXPECT_EQ(r.hot[1].pc, 6u);
    ASSERT_TRUE(r.spill.valid);
    EXPECT_EQ(r.spill.pc, 9u);
    EXPECT_EQ(r.spill.id, 1u);
}

TEST(HctSorter, EqualPcMergesMasks)
{
    SorterResult r = hctSort(entry(4, 0x3, 1), entry(4, 0xc, 2), {});
    ASSERT_TRUE(r.hot[0].valid);
    EXPECT_EQ(r.hot[0].pc, 4u);
    EXPECT_EQ(r.hot[0].mask.bits(), 0xfu);
    EXPECT_FALSE(r.hot[1].valid);
    EXPECT_EQ(r.merges, 1u);
    EXPECT_TRUE(r.want_pop);
}

TEST(HctSorter, TripleMergeCollapsesToOne)
{
    SorterResult r = hctSort(entry(4, 0x1, 1), entry(4, 0x2, 2),
                             entry(4, 0x4, 3));
    ASSERT_TRUE(r.hot[0].valid);
    EXPECT_EQ(r.hot[0].mask.bits(), 0x7u);
    EXPECT_EQ(r.merges, 2u);
    EXPECT_FALSE(r.spill.valid);
}

TEST(HctSorter, PinnedEntryNeverMerges)
{
    SorterResult r = hctSort(entry(4, 0x3, 1, true),
                             entry(4, 0xc, 2), {});
    EXPECT_TRUE(r.hot[0].valid);
    EXPECT_TRUE(r.hot[1].valid);
    EXPECT_EQ(r.merges, 0u);
}

TEST(HctSorter, PinnedEntryNeverSpills)
{
    // Pinned entry has the highest PC; the unpinned one spills.
    SorterResult r = hctSort(entry(9, 0x1, 1, true),
                             entry(3, 0x2, 2), entry(6, 0x4, 3));
    ASSERT_TRUE(r.spill.valid);
    EXPECT_EQ(r.spill.id, 3u);
    // Pinned stays hot despite higher PC.
    bool pinned_hot = (r.hot[0].valid && r.hot[0].id == 1) ||
                      (r.hot[1].valid && r.hot[1].id == 1);
    EXPECT_TRUE(pinned_hot);
}

TEST(HctSorter, BarrierStatesMustMatchToMerge)
{
    // Arrived + not-arrived at the same PC: no merge.
    SorterResult r = hctSort(entry(4, 0x3, 1, false, true),
                             entry(4, 0xc, 2, false, false), {});
    EXPECT_EQ(r.merges, 0u);
    // Both arrived: merge (heap drain under barriers).
    r = hctSort(entry(4, 0x3, 1, false, true),
                entry(4, 0xc, 2, false, true), {});
    EXPECT_EQ(r.merges, 1u);
    EXPECT_TRUE(r.hot[0].barrier);
}

class HctSorterOrdering
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{
};

TEST_P(HctSorterOrdering, OrderInvariant)
{
    // Property: the sorter result is the same regardless of which
    // input port carries which context.
    auto [a, b, c] = GetParam();
    SorterEntry e[3] = {entry(7, 0x1, 10), entry(2, 0x2, 20),
                        entry(5, 0x4, 30)};
    SorterResult r = hctSort(e[a], e[b], e[c]);
    EXPECT_EQ(r.hot[0].pc, 2u);
    EXPECT_EQ(r.hot[1].pc, 5u);
    ASSERT_TRUE(r.spill.valid);
    EXPECT_EQ(r.spill.pc, 7u);
}

INSTANTIATE_TEST_SUITE_P(
    Permutations, HctSorterOrdering,
    ::testing::Values(std::tuple{0, 1, 2}, std::tuple{0, 2, 1},
                      std::tuple{1, 0, 2}, std::tuple{1, 2, 0},
                      std::tuple{2, 0, 1}, std::tuple{2, 1, 0}));

TEST(HctSorter, MaskUnionPreserved)
{
    // Property: no threads are lost through the network.
    SorterEntry a = entry(7, 0x0f, 1);
    SorterEntry b = entry(7, 0xf0, 2);
    SorterEntry c = entry(3, 0xf00, 3);
    SorterResult r = hctSort(a, b, c);
    LaneMask all;
    for (const auto &h : r.hot) {
        if (h.valid)
            all |= h.mask;
    }
    if (r.spill.valid)
        all |= r.spill.mask;
    EXPECT_EQ(all.bits(), 0xfffull);
}

/** Same context in the same state: what a sorter slot holds. */
bool
sameEntry(const SorterEntry &x, const SorterEntry &y)
{
    if (x.valid != y.valid)
        return false;
    return !x.valid ||
           (x.id == y.id && x.pc == y.pc && x.mask == y.mask &&
            x.pinned == y.pinned && x.barrier == y.barrier);
}

TEST(HctSettled, AgreesWithTheSorterOnEverySmallState)
{
    // Every hot pair over three PCs, pinned and barrier flags, or
    // an empty slot, against an empty and a non-empty cold store:
    // the no-op rule holds exactly when a sorter pass over the pair
    // hands it back unchanged, with no merge, no spill and no pop
    // the cold store could serve.
    std::vector<SorterEntry> slots = {SorterEntry{}};
    for (Pc pc = 1; pc <= 3; ++pc) {
        for (int flags = 0; flags < 4; ++flags)
            slots.push_back(entry(pc, 0, 0, flags & 1, flags & 2));
    }
    unsigned settled = 0, cases = 0;
    for (SorterEntry a : slots) {
        for (SorterEntry b : slots) {
            // Disjoint masks and distinct ids, as in a real heap.
            if (a.valid) {
                a.mask = LaneMask(0x1);
                a.id = 1;
            }
            if (b.valid) {
                b.mask = LaneMask(0x2);
                b.id = 2;
            }
            for (bool cold_empty : {true, false}) {
                SorterResult r = hctSort(a, b, {});
                bool unchanged = sameEntry(r.hot[0], a) &&
                                 sameEntry(r.hot[1], b) &&
                                 r.merges == 0 && !r.spill.valid &&
                                 !(r.want_pop && !cold_empty);
                EXPECT_EQ(hctSettled(a, b, cold_empty), unchanged)
                    << "a " << a.valid << " pc " << a.pc << " pin "
                    << a.pinned << " bar " << a.barrier << ", b "
                    << b.valid << " pc " << b.pc << " pin "
                    << b.pinned << " bar " << b.barrier
                    << ", cold empty " << cold_empty;
                settled += unchanged;
                ++cases;
            }
        }
    }
    EXPECT_EQ(cases, 13u * 13u * 2u);
    // Both answers occur often: the sweep is not one-sided.
    EXPECT_GT(settled, 50u);
    EXPECT_LT(settled, cases - 50u);
}

} // namespace
} // namespace siwi::divergence
