/**
 * @file
 * Exact-mask scoreboard tests (RAW/WAW with lane-mask filtering).
 */

#include <gtest/gtest.h>

#include "isa/instruction.hh"
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

/** The probe the SM makes for a buffered @p inst. */
bool
conflicts(const Scoreboard &sb, WarpId w, const Instruction &inst,
          LaneMask mask)
{
    return sb.conflicts(w, inst.hazardMask(), mask);
}

TEST(Scoreboard, StartsEmpty)
{
    Scoreboard sb(4, 6);
    EXPECT_TRUE(sb.hasFreeEntry(0));
    EXPECT_EQ(sb.used(0), 0u);
    EXPECT_FALSE(conflicts(sb, 0, add(0, 1, 2), LaneMask(0xff)));
}

TEST(Scoreboard, RawDetected)
{
    Scoreboard sb(4, 6);
    sb.allocate(0, 5, LaneMask(0xff));
    EXPECT_TRUE(conflicts(sb, 0, add(0, 5, 2), LaneMask(0xff)));
    EXPECT_TRUE(conflicts(sb, 0, add(0, 2, 5), LaneMask(0xff)));
    EXPECT_FALSE(conflicts(sb, 0, add(0, 1, 2), LaneMask(0xff)));

    // Registers past bit 31 of the hazard mask: a 32-bit shift
    // would alias 63 onto 31 and 32 onto 0.
    sb.allocate(0, 63, LaneMask(0xff));
    EXPECT_TRUE(conflicts(sb, 0, add(0, 63, 2), LaneMask(0xff)));
    EXPECT_FALSE(conflicts(sb, 0, add(0, 31, 2), LaneMask(0xff)));
    sb.allocate(0, 32, LaneMask(0xff));
    EXPECT_TRUE(conflicts(sb, 0, add(1, 2, 32), LaneMask(0xff)));
    EXPECT_FALSE(conflicts(sb, 0, add(1, 31, 2), LaneMask(0xff)));
}

TEST(Scoreboard, WawDetected)
{
    Scoreboard sb(4, 6);
    sb.allocate(0, 5, LaneMask(0xff));
    EXPECT_TRUE(conflicts(sb, 0, add(5, 1, 2), LaneMask(0xff)));

    // Destinations past bit 31 of the hazard mask.
    sb.allocate(0, 63, LaneMask(0xff));
    EXPECT_TRUE(conflicts(sb, 0, add(63, 1, 2), LaneMask(0xff)));
    EXPECT_FALSE(conflicts(sb, 0, add(31, 1, 2), LaneMask(0xff)));
    sb.allocate(0, 32, LaneMask(0xff));
    EXPECT_TRUE(conflicts(sb, 0, add(32, 1, 2), LaneMask(0xff)));
    EXPECT_FALSE(conflicts(sb, 0, add(31, 1, 2), LaneMask(0xff)));
}

TEST(Scoreboard, DisjointMasksNeverConflict)
{
    // The paper's key scoreboard requirement (3.4): dependencies
    // between non-intersecting warp-splits are ignored.
    Scoreboard sb(4, 6);
    sb.allocate(0, 5, LaneMask(0x0f));
    EXPECT_FALSE(conflicts(sb, 0, add(0, 5, 2), LaneMask(0xf0)));
    EXPECT_TRUE(conflicts(sb, 0, add(0, 5, 2), LaneMask(0x18)));
}

TEST(Scoreboard, PerWarpIsolation)
{
    Scoreboard sb(4, 6);
    sb.allocate(0, 5, LaneMask(0xff));
    EXPECT_FALSE(conflicts(sb, 1, add(0, 5, 2), LaneMask(0xff)));
}

TEST(Scoreboard, CapacityLimit)
{
    Scoreboard sb(2, 3);
    sb.allocate(0, 1, LaneMask(1));
    sb.allocate(0, 2, LaneMask(1));
    sb.allocate(0, 3, LaneMask(1));
    EXPECT_FALSE(sb.hasFreeEntry(0));
    EXPECT_EQ(sb.used(0), 3u);
    EXPECT_TRUE(sb.hasFreeEntry(1));
}

TEST(Scoreboard, ReleaseFreesEntry)
{
    Scoreboard sb(2, 2);
    unsigned a = sb.allocate(0, 1, LaneMask(0xff));
    sb.allocate(0, 2, LaneMask(0xff));
    EXPECT_FALSE(sb.hasFreeEntry(0));
    sb.release(0, a);
    EXPECT_TRUE(sb.hasFreeEntry(0));
    EXPECT_FALSE(conflicts(sb, 0, add(0, 1, 3), LaneMask(0xff)));
    EXPECT_TRUE(conflicts(sb, 0, add(0, 2, 3), LaneMask(0xff)));
}

TEST(Scoreboard, StoreSourcesChecked)
{
    Scoreboard sb(2, 4);
    sb.allocate(0, 7, LaneMask(0xff));
    Instruction st;
    st.op = Opcode::ST;
    st.sa = 7; // address base in flight
    st.sb = 1;
    EXPECT_TRUE(conflicts(sb, 0, st, LaneMask(0xff)));
    st.sa = 1;
    st.sb = 7; // store value in flight
    EXPECT_TRUE(conflicts(sb, 0, st, LaneMask(0xff)));
}

TEST(Scoreboard, BranchConditionChecked)
{
    Scoreboard sb(2, 4);
    sb.allocate(0, 3, LaneMask(0x0f));
    Instruction bnz;
    bnz.op = Opcode::BNZ;
    bnz.sa = 3;
    bnz.target = 0;
    EXPECT_TRUE(conflicts(sb, 0, bnz, LaneMask(0x01)));
    EXPECT_FALSE(conflicts(sb, 0, bnz, LaneMask(0x10)));
}

TEST(Scoreboard, FlushWarpClears)
{
    Scoreboard sb(2, 2);
    sb.allocate(0, 1, LaneMask(0xff));
    sb.allocate(0, 2, LaneMask(0xff));
    sb.flushWarp(0);
    EXPECT_TRUE(sb.hasFreeEntry(0));
    EXPECT_EQ(sb.used(0), 0u);
}

TEST(Scoreboard, ImmediateOperandNotARegister)
{
    Scoreboard sb(2, 4);
    sb.allocate(0, 2, LaneMask(0xff));
    Instruction i = add(0, 1, 2);
    i.b_is_imm = true; // rb field unused
    EXPECT_FALSE(conflicts(sb, 0, i, LaneMask(0xff)));
}

} // namespace
} // namespace siwi::pipeline
