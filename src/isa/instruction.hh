/**
 * @file
 * A single decoded instruction of the SIMT ISA.
 */

#ifndef SIWI_ISA_INSTRUCTION_HH
#define SIWI_ISA_INSTRUCTION_HH

#include <array>
#include <string>

#include "common/types.hh"
#include "isa/opcode.hh"

namespace siwi::isa {

/** The source registers of one instruction: at most three. */
class SrcRegs
{
  public:
    unsigned size() const { return n_; }
    bool empty() const { return n_ == 0; }
    RegIdx operator[](unsigned i) const { return regs_[i]; }
    const RegIdx *begin() const { return regs_.data(); }
    const RegIdx *end() const { return regs_.data() + n_; }

    void push(RegIdx r) { regs_[n_++] = r; }

  private:
    std::array<RegIdx, 3> regs_{};
    unsigned n_ = 0;
};

// hazardMask() gives every architectural register one bit of a u64.
static_assert(num_arch_regs <= 64, "hazard mask holds 64 registers");

/**
 * One decoded instruction.
 *
 * A flat POD covering every operand form. Branches carry two PC
 * annotations filled by the compiler passes:
 *  - @ref reconv : the reconvergence point (immediate post-dominator),
 *    consumed by the baseline divergence stack exactly like Tesla's
 *    SSY marker;
 *  - SYNC instructions carry @ref div : the divergence point PCdiv
 *    (last instruction of the immediate dominator of the
 *    reconvergence point), the payload of the paper's selective
 *    synchronization barrier (section 3.3).
 */
struct Instruction
{
    Opcode op = Opcode::NOP;

    RegIdx dst = 0; //!< destination register
    RegIdx sa = 0;  //!< first source register (also address base / cond)
    RegIdx sb = 0;  //!< second source register (also store value)
    RegIdx sc = 0;  //!< third source register (mad addend, sel false-val)

    i32 imm = 0;          //!< immediate operand / memory offset
    bool b_is_imm = false;//!< second operand is @ref imm, not @ref sb

    SpecialReg sreg = SpecialReg::TID; //!< S2R source

    Pc target = invalid_pc; //!< branch target
    Pc reconv = invalid_pc; //!< reconvergence point (cond branches)
    Pc div = invalid_pc;    //!< SYNC payload: divergence point PCdiv

    /** Unit class this instruction is issued to. */
    UnitClass unit() const { return opInfo(op).unit; }

    /** True when a destination register is written. */
    bool writesDst() const { return opInfo(op).writes_dst; }

    /** Source registers actually read, for scoreboard comparison. */
    SrcRegs srcRegs() const;

    /**
     * Registers an in-flight write to which blocks this
     * instruction, one bit per register: the sources (RAW) plus
     * the destination when one is written (WAW). Exact for every
     * register below num_arch_regs, which Program::validate
     * enforces.
     */
    u64 hazardMask() const;

    /** Render in the assembler syntax (without label prefix). */
    std::string toString() const;
};

} // namespace siwi::isa

#endif // SIWI_ISA_INSTRUCTION_HH
