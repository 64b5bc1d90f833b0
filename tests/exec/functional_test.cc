/**
 * @file
 * Functional semantics tests for every opcode.
 */

#include <bit>
#include <cmath>
#include <cstdlib>

#include <gtest/gtest.h>

#include "exec/functional.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"

namespace siwi::exec {
namespace {

using isa::Instruction;
using isa::Opcode;
using isa::SpecialReg;

/** memAddresses() into a buffer of its own. */
mem::LaneAccesses
addresses(const Instruction &inst, const WarpState &warp, LaneMask mask)
{
    mem::LaneAccesses out;
    memAddresses(inst, warp, mask, out);
    return out;
}

class Functional : public ::testing::Test
{
  protected:
    Functional() : warp(4, num_arch_regs)
    {
        for (unsigned l = 0; l < 4; ++l) {
            warp.info(l).valid = true;
            warp.info(l).tid = i32(l);
        }
        mask = LaneMask::firstN(4);
    }

    void
    setF(unsigned lane, RegIdx r, float v)
    {
        warp.setReg(lane, r, std::bit_cast<u32>(v));
    }

    float
    getF(unsigned lane, RegIdx r)
    {
        return std::bit_cast<float>(warp.reg(lane, r));
    }

    Instruction
    bin(Opcode op, RegIdx d, RegIdx a, RegIdx b)
    {
        Instruction i;
        i.op = op;
        i.dst = d;
        i.sa = a;
        i.sb = b;
        return i;
    }

    WarpState warp;
    LaneMask mask;
    mem::MemoryImage memory;
};

TEST_F(Functional, IntegerAluBasics)
{
    warp.setReg(0, 1, u32(i32(7)));
    warp.setReg(0, 2, u32(i32(-3)));
    executeAlu(bin(Opcode::IADD, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 4);
    executeAlu(bin(Opcode::ISUB, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 10);
    executeAlu(bin(Opcode::IMUL, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -21);
    executeAlu(bin(Opcode::IMIN, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -3);
    executeAlu(bin(Opcode::IMAX, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 7);
}

TEST_F(Functional, ImmediateOperand)
{
    warp.setReg(0, 1, 10);
    Instruction i = bin(Opcode::IADD, 0, 1, 0);
    i.b_is_imm = true;
    i.imm = -4;
    executeAlu(i, warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 6);
}

TEST_F(Functional, MaskedLanesUntouched)
{
    warp.setReg(0, 1, 5);
    warp.setReg(1, 1, 5);
    warp.setReg(0, 0, 99);
    warp.setReg(1, 0, 99);
    Instruction i = bin(Opcode::IADD, 0, 1, 0);
    i.b_is_imm = true;
    i.imm = 1;
    executeAlu(i, warp, LaneMask::lane(1));
    EXPECT_EQ(warp.reg(0, 0), 99u); // untouched
    EXPECT_EQ(warp.reg(1, 0), 6u);
}

TEST_F(Functional, ShiftsAndLogic)
{
    warp.setReg(0, 1, 0xff00ff00u);
    warp.setReg(0, 2, 4);
    executeAlu(bin(Opcode::SHL, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0xf00ff000u);
    executeAlu(bin(Opcode::SHR, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0x0ff00ff0u);
    warp.setReg(0, 1, u32(i32(-16)));
    executeAlu(bin(Opcode::SRA, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -1);
    warp.setReg(0, 1, 0b1100);
    warp.setReg(0, 2, 0b1010);
    executeAlu(bin(Opcode::AND, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0b1000u);
    executeAlu(bin(Opcode::OR, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0b1110u);
    executeAlu(bin(Opcode::XOR, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 0b0110u);
    executeAlu(bin(Opcode::NOT, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), ~u32(0b1100));
}

TEST_F(Functional, Compares)
{
    warp.setReg(0, 1, u32(i32(-2)));
    warp.setReg(0, 2, u32(i32(3)));
    auto run = [&](Opcode op) {
        executeAlu(bin(op, 0, 1, 2), warp, LaneMask::lane(0));
        return warp.reg(0, 0);
    };
    EXPECT_EQ(run(Opcode::ISETLT), 1u);
    EXPECT_EQ(run(Opcode::ISETLE), 1u);
    EXPECT_EQ(run(Opcode::ISETEQ), 0u);
    EXPECT_EQ(run(Opcode::ISETNE), 1u);
    EXPECT_EQ(run(Opcode::ISETGE), 0u);
    EXPECT_EQ(run(Opcode::ISETGT), 0u);
}

TEST_F(Functional, Select)
{
    warp.setReg(0, 1, 1);
    warp.setReg(0, 2, 100);
    warp.setReg(0, 3, 200);
    Instruction i;
    i.op = Opcode::SEL;
    i.dst = 0;
    i.sa = 1;
    i.sb = 2;
    i.sc = 3;
    executeAlu(i, warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 100u);
    warp.setReg(0, 1, 0);
    executeAlu(i, warp, LaneMask::lane(0));
    EXPECT_EQ(warp.reg(0, 0), 200u);
}

TEST_F(Functional, FloatOps)
{
    setF(0, 1, 2.5f);
    setF(0, 2, -1.5f);
    executeAlu(bin(Opcode::FADD, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 1.0f);
    executeAlu(bin(Opcode::FMUL, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -3.75f);
    executeAlu(bin(Opcode::FMIN, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -1.5f);
    executeAlu(bin(Opcode::FMAX, 0, 1, 2), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.5f);

    Instruction mad;
    mad.op = Opcode::FMAD;
    mad.dst = 0;
    mad.sa = 1;
    mad.sb = 2;
    mad.sc = 3;
    setF(0, 3, 10.0f);
    executeAlu(mad, warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.5f * -1.5f + 10.0f);

    executeAlu(bin(Opcode::FABS, 0, 2, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 1.5f);
    executeAlu(bin(Opcode::FNEG, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -2.5f);
}

TEST_F(Functional, Conversions)
{
    warp.setReg(0, 1, u32(i32(-7)));
    executeAlu(bin(Opcode::I2F, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), -7.0f);
    setF(0, 1, 3.9f);
    executeAlu(bin(Opcode::F2I, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 3); // truncation
    setF(0, 1, -3.9f);
    executeAlu(bin(Opcode::F2I, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), -3);
}

TEST_F(Functional, SfuOps)
{
    setF(0, 1, 4.0f);
    executeAlu(bin(Opcode::RCP, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 0.25f);
    executeAlu(bin(Opcode::RSQ, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 0.5f);
    executeAlu(bin(Opcode::SQRT, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.0f);
    executeAlu(bin(Opcode::EXP2, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 16.0f);
    executeAlu(bin(Opcode::LOG2, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 2.0f);
    setF(0, 1, 0.0f);
    executeAlu(bin(Opcode::SIN, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 0.0f);
    executeAlu(bin(Opcode::COS, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_FLOAT_EQ(getF(0, 0), 1.0f);
}

TEST_F(Functional, SpecialRegisters)
{
    warp.info(2).tid = 42;
    warp.info(2).ctaid = 3;
    warp.info(2).gtid = 1066;
    warp.info(2).lane = 2;
    Instruction i;
    i.op = Opcode::S2R;
    i.dst = 0;
    i.sreg = SpecialReg::TID;
    executeAlu(i, warp, LaneMask::lane(2));
    EXPECT_EQ(warp.reg(2, 0), 42u);
    i.sreg = SpecialReg::GTID;
    executeAlu(i, warp, LaneMask::lane(2));
    EXPECT_EQ(warp.reg(2, 0), 1066u);
    i.sreg = SpecialReg::LANE;
    executeAlu(i, warp, LaneMask::lane(2));
    EXPECT_EQ(warp.reg(2, 0), 2u);
}

TEST_F(Functional, BranchEvaluation)
{
    Instruction bnz;
    bnz.op = Opcode::BNZ;
    bnz.sa = 1;
    bnz.target = 0;
    warp.setReg(0, 1, 0);
    warp.setReg(1, 1, 5);
    warp.setReg(2, 1, 0);
    warp.setReg(3, 1, 1);
    LaneMask taken = evalBranch(bnz, warp, mask);
    EXPECT_EQ(taken.bits(), 0b1010u);

    Instruction bz = bnz;
    bz.op = Opcode::BZ;
    EXPECT_EQ(evalBranch(bz, warp, mask).bits(), 0b0101u);

    Instruction bra;
    bra.op = Opcode::BRA;
    bra.target = 0;
    EXPECT_EQ(evalBranch(bra, warp, mask), mask);
}

TEST_F(Functional, BranchRespectsMask)
{
    Instruction bnz;
    bnz.op = Opcode::BNZ;
    bnz.sa = 1;
    warp.setReg(0, 1, 1);
    warp.setReg(1, 1, 1);
    LaneMask taken = evalBranch(bnz, warp, LaneMask::lane(0));
    EXPECT_EQ(taken.bits(), 0b0001u);
}

TEST_F(Functional, MemAddressesAndLoadStore)
{
    for (unsigned l = 0; l < 4; ++l)
        warp.setReg(l, 1, 0x1000 + l * 4);
    Instruction st;
    st.op = Opcode::ST;
    st.sa = 1;
    st.sb = 2;
    st.imm = 8;
    for (unsigned l = 0; l < 4; ++l)
        warp.setReg(l, 2, 100 + l);
    executeMem(st, addresses(st, warp, mask), mask, warp, memory);
    for (unsigned l = 0; l < 4; ++l)
        EXPECT_EQ(memory.read32(0x1008 + l * 4), 100 + l);

    Instruction ld;
    ld.op = Opcode::LD;
    ld.dst = 3;
    ld.sa = 1;
    ld.imm = 8;
    executeMem(ld, addresses(ld, warp, mask), mask, warp, memory);
    for (unsigned l = 0; l < 4; ++l)
        EXPECT_EQ(warp.reg(l, 3), 100 + l);

    auto reqs = addresses(ld, warp, LaneMask(0b0110));
    ASSERT_EQ(reqs.size(), 2u);
    EXPECT_EQ(reqs[0].lane, 1u);
    EXPECT_EQ(reqs[0].addr, 0x100cu);
}

TEST_F(Functional, IabsAndMov)
{
    warp.setReg(0, 1, u32(i32(-9)));
    executeAlu(bin(Opcode::IABS, 0, 1, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 0)), 9);
    executeAlu(bin(Opcode::MOV, 2, 0, 0), warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 2)), 9);
    Instruction movi;
    movi.op = Opcode::MOVI;
    movi.dst = 5;
    movi.imm = -1234;
    movi.b_is_imm = true;
    executeAlu(movi, warp, LaneMask::lane(0));
    EXPECT_EQ(i32(warp.reg(0, 5)), -1234);
}

TEST_F(Functional, ConflictingStoresLandTheHighestActiveLane)
{
    // Every lane stores its own value to one address.
    Instruction st;
    st.op = Opcode::ST;
    st.sa = 1;
    st.sb = 2;
    for (unsigned l = 0; l < 4; ++l) {
        warp.setReg(l, 1, 0x3000);
        warp.setReg(l, 2, 10 + l);
    }
    const auto all = addresses(st, warp, mask);
    executeMem(st, all, mask, warp, memory);
    EXPECT_EQ(memory.read32(0x3000), 13u);

    // One address pass serves a sub-mask too (a memory split's
    // first transaction): its highest lane wins.
    executeMem(st, all, LaneMask(0b0011), warp, memory);
    EXPECT_EQ(memory.read32(0x3000), 11u);

    const LaneMask even(0b0101);
    executeMem(st, addresses(st, warp, even), even, warp, memory);
    EXPECT_EQ(memory.read32(0x3000), 12u);
}

TEST(FunctionalText, SelectImmediateIsTheTrueOperand)
{
    // Like imad and fmad, sel takes its second operand from the
    // immediate; r0 is not read.
    isa::AsmResult res = isa::assemble("sel r1, r2, #5, r3\nexit\n");
    ASSERT_TRUE(res.ok()) << res.error;
    const Instruction &sel = res.program.at(0);
    ASSERT_TRUE(sel.b_is_imm);
    ASSERT_EQ(res.program.regsUsed(), 4u);

    WarpState warp(4, res.program.regsUsed());
    for (unsigned l = 0; l < 4; ++l) {
        warp.setReg(l, 0, 777);
        warp.setReg(l, 2, l % 2); // true on lanes 1 and 3
        warp.setReg(l, 3, 9);
    }
    executeAlu(sel, warp, LaneMask::firstN(4));
    for (unsigned l = 0; l < 4; ++l)
        EXPECT_EQ(warp.reg(l, 1), l % 2 ? 5u : 9u) << "lane " << l;
}

/**
 * Lane @p l's value in register @p r: word-aligned (a usable
 * address), close to 1.0f as a float, and zero on lane 0 (a false
 * SEL condition, a branch BNZ does not take).
 */
u32
probeValue(unsigned r, unsigned l)
{
    return l == 0 ? 0 : 0x3f800000u + r * 64 + l * 4;
}

/** A 4-lane warp sized to @p prog's registers, set by probeValue. */
WarpState
probeWarp(const isa::Program &prog)
{
    WarpState w(4, prog.regsUsed());
    for (unsigned r = 0; r < w.regs(); ++r) {
        for (unsigned l = 0; l < 4; ++l)
            w.setReg(l, RegIdx(r), probeValue(r, l));
    }
    return w;
}

/** Apply @p inst's functional semantics to the lanes of @p mask. */
void
runOne(const Instruction &inst, WarpState &warp, LaneMask mask,
       mem::MemoryImage &memory)
{
    if (isa::isMemory(inst.op)) {
        executeMem(inst, addresses(inst, warp, mask), mask, warp,
                   memory);
    } else if (isa::isBranch(inst.op)) {
        evalBranch(inst, warp, mask);
    } else if (inst.op == Opcode::NOP || inst.writesDst()) {
        executeAlu(inst, warp, mask);
    }
    // SYNC, BAR and EXIT act on the pipeline, not on registers.
}

TEST(FunctionalRegisters, EveryOpcodeStaysInsideItsSizedFile)
{
    // The register file holds only Program::regsUsed() registers,
    // so an operand read that srcRegs() does not declare trips the
    // file's bounds assert, and a stray write shows up below.
    const LaneMask mask(0b1011); // lane 2 inactive
    for (unsigned o = 0; o < isa::num_opcodes; ++o) {
        for (bool imm : {false, true}) {
            // One register per field. With an immediate, sb names
            // the last architectural register: outside the file.
            Instruction inst;
            inst.op = Opcode(o);
            inst.dst = 1;
            inst.sa = 2;
            inst.sb = imm ? RegIdx(num_arch_regs - 1) : 3;
            inst.sc = 4;
            inst.b_is_imm = imm;
            inst.imm = 0x40;
            inst.sreg = SpecialReg::GTID;
            inst.target = 0;
            SCOPED_TRACE(inst.toString() +
                         (imm ? " (b_is_imm)" : " (register b)"));
            isa::Program prog;
            prog.push(inst);

            // Run first in a child process, so that the bounds
            // panic fails the test naming this instruction.
            ASSERT_EXIT(
                {
                    WarpState w = probeWarp(prog);
                    mem::MemoryImage m;
                    runOne(inst, w, mask, m);
                    std::exit(0);
                },
                ::testing::ExitedWithCode(0), "");

            WarpState warp = probeWarp(prog);
            const WarpState before = warp;
            mem::MemoryImage memory;
            runOne(inst, warp, mask, memory);
            for (unsigned r = 0; r < warp.regs(); ++r) {
                for (unsigned l = 0; l < 4; ++l) {
                    if (inst.writesDst() && r == inst.dst &&
                        mask.test(l))
                        continue;
                    EXPECT_EQ(warp.reg(l, RegIdx(r)),
                              before.reg(l, RegIdx(r)))
                        << "r" << r << " lane " << l;
                }
            }
            if (!imm || !inst.writesDst())
                continue;

            // An immediate second operand computes what the
            // register form does with the immediate in rb.
            Instruction reg_form = inst;
            reg_form.b_is_imm = false;
            reg_form.sb = 3;
            isa::Program ref_prog;
            ref_prog.push(reg_form);
            WarpState ref = probeWarp(ref_prog);
            if (ref.regs() > 3) {
                for (unsigned l = 0; l < 4; ++l)
                    ref.setReg(l, 3, u32(inst.imm));
            }
            mem::MemoryImage ref_memory;
            runOne(reg_form, ref, mask, ref_memory);
            mask.forEach([&](unsigned l) {
                EXPECT_EQ(warp.reg(l, inst.dst), ref.reg(l, inst.dst))
                    << "lane " << l;
            });
        }
    }
}

} // namespace
} // namespace siwi::exec
