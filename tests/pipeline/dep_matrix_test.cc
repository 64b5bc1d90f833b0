/**
 * @file
 * Dependency-matrix scoreboard tests (paper 3.4, Figure 6),
 * including the conservativeness property against the exact-mask
 * scoreboard: the matrix design may add false dependencies via the
 * aggregated I3 slot, but must never miss a true dependency.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "pipeline/dep_matrix.hh"
#include "pipeline/scoreboard.hh"

namespace siwi::pipeline {
namespace {

using isa::Instruction;
using isa::Opcode;

Instruction
add(RegIdx d, RegIdx a, RegIdx b)
{
    Instruction i;
    i.op = Opcode::IADD;
    i.dst = d;
    i.sa = a;
    i.sb = b;
    return i;
}

using Masks = std::array<LaneMask, 3>;

TEST(DepMatrix, IdentityDiagonal)
{
    DepMatrix m = DepMatrix::identity();
    for (unsigned r = 0; r < 3; ++r) {
        for (unsigned c = 0; c < 3; ++c)
            EXPECT_EQ(m.get(r, c), r == c);
    }
}

TEST(DepMatrix, FromMasksIntersections)
{
    Masks t0 = {LaneMask(0x0f), LaneMask(0xf0), LaneMask{}};
    Masks t1 = {LaneMask(0x03), LaneMask(0x3c), LaneMask(0xc0)};
    DepMatrix m = DepMatrix::fromMasks(t0, t1);
    EXPECT_TRUE(m.get(0, 0));  // 0x0f & 0x03
    EXPECT_TRUE(m.get(0, 1));  // 0x0f & 0x3c
    EXPECT_FALSE(m.get(0, 2)); // 0x0f & 0xc0
    EXPECT_FALSE(m.get(1, 0));
    EXPECT_TRUE(m.get(1, 1));
    EXPECT_TRUE(m.get(1, 2));
    EXPECT_FALSE(m.get(2, 0)); // empty row
}

TEST(DepMatrix, BooleanProduct)
{
    DepMatrix a, b;
    a.set(0, 1);
    b.set(1, 2);
    DepMatrix c = a.multiply(b);
    EXPECT_TRUE(c.get(0, 2));
    EXPECT_FALSE(c.get(0, 1));
    EXPECT_FALSE(c.get(1, 2));
}

TEST(DepMatrix, ProductWithIdentity)
{
    DepMatrix a;
    a.set(0, 2);
    a.set(1, 0);
    EXPECT_EQ(a.multiply(DepMatrix::identity()).raw(), a.raw());
    EXPECT_EQ(DepMatrix::identity().multiply(a).raw(), a.raw());
}

TEST(DepMatrixScoreboard, PaperFigure6Example)
{
    // Figure 6: divergence then reconvergence; the instruction at
    // t-3 in the primary slot is a dependency of both slots after
    // the masks merge back.
    DepMatrixScoreboard sb(6);
    // t-3: primary {1,2} executes "brc" ... take the mul at 22 as
    // entry: issued from primary slot.
    Masks t3 = {LaneMask(0b0111), LaneMask(0b1000), LaneMask{}};
    unsigned e = sb.allocate(1, 0); // writes r1 from primary slot

    // Step to t-2: primary splits; thread sets move.
    Masks t2 = {LaneMask(0b0011), LaneMask(0b0100),
                LaneMask(0b1000)};
    sb.step(t3, t2);
    // Step to t-1: reconvergence pulls threads together.
    Masks t1 = {LaneMask(0b0111), LaneMask(0b1000), LaneMask{}};
    sb.step(t2, t1);

    // An instruction in the primary slot reading r1 depends.
    EXPECT_TRUE(sb.conflicts(add(2, 1, 3), 0));
    // The secondary slot holds threads {3} which never executed the
    // r1 write... but may have inherited it through I3 tracking;
    // exact answer: thread 3 was in slot1 at t-3, not slot0, so no
    // dependency.
    EXPECT_FALSE(sb.conflicts(add(2, 1, 3), 1));
    sb.release(e);
    EXPECT_FALSE(sb.conflicts(add(2, 1, 3), 0));
}

TEST(DepMatrixScoreboard, CapacityAndRelease)
{
    DepMatrixScoreboard sb(2);
    unsigned a = sb.allocate(1, 0);
    sb.allocate(2, 0);
    EXPECT_FALSE(sb.hasFreeEntry());
    EXPECT_EQ(sb.used(), 2u);
    sb.release(a);
    EXPECT_TRUE(sb.hasFreeEntry());
}

TEST(DepMatrixScoreboard, RegisterMismatchNoConflict)
{
    DepMatrixScoreboard sb(4);
    sb.allocate(1, 0);
    EXPECT_FALSE(sb.conflicts(add(2, 3, 4), 0));
    EXPECT_TRUE(sb.conflicts(add(1, 3, 4), 0)); // WAW
}

/**
 * Conservativeness property: simulate random warp-split evolutions;
 * wherever the exact-mask scoreboard reports a dependency, the
 * matrix scoreboard must too (it may over-approximate, never
 * under-approximate).
 */
class Conservative : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Conservative, NeverMissesTrueDependency)
{
    Rng rng(GetParam() * 1337 + 5);
    const unsigned width = 8;

    // Slot masks evolve randomly but always partition the warp.
    auto random_masks = [&]() {
        Masks m;
        for (unsigned lane = 0; lane < width; ++lane) {
            unsigned slot = unsigned(rng.below(3));
            m[slot].set(lane);
        }
        return m;
    };

    Masks cur = random_masks();
    DepMatrixScoreboard matrix_sb(8);
    Scoreboard exact_sb(1, 8);

    struct Live
    {
        unsigned midx;
        unsigned eidx;
        RegIdx dst;
    };
    std::vector<Live> live;

    for (int step = 0; step < 40; ++step) {
        // Issue a write from a random non-empty slot.
        unsigned slot = unsigned(rng.below(2)); // only hot slots
        if (cur[slot].any() && matrix_sb.hasFreeEntry() &&
            exact_sb.hasFreeEntry(0)) {
            RegIdx dst = RegIdx(rng.below(8));
            Live l;
            l.dst = dst;
            l.midx = matrix_sb.allocate(dst, slot);
            l.eidx = exact_sb.allocate(0, dst, cur[slot]);
            live.push_back(l);
        }

        // Evolve the warp-split structure.
        Masks next = random_masks();
        matrix_sb.step(cur, next);
        cur = next;

        // Check conservativeness for reads from both hot slots.
        for (unsigned s = 0; s < 2; ++s) {
            if (cur[s].none())
                continue;
            for (RegIdx r = 0; r < 8; ++r) {
                Instruction probe = add(7, r, r);
                probe.op = Opcode::MOV;
                probe.dst = 7;
                probe.sa = r;
                bool exact =
                    exact_sb.conflicts(0, probe.hazardMask(), cur[s]);
                bool approx = matrix_sb.conflicts(probe, s);
                if (exact) {
                    EXPECT_TRUE(approx)
                        << "step " << step << " slot " << s
                        << " reg " << unsigned(r);
                }
            }
        }

        // Occasionally retire the oldest write.
        if (!live.empty() && rng.below(3) == 0) {
            matrix_sb.release(live.front().midx);
            exact_sb.release(0, live.front().eidx);
            live.erase(live.begin());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservative,
                         ::testing::Range(0u, 20u));

} // namespace
} // namespace siwi::pipeline
