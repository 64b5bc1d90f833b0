#include "pipeline/ibuffer.hh"

#include "isa/program.hh"

namespace siwi::pipeline {

std::vector<DecodedInst>
decodeProgram(const isa::Program &prog)
{
    std::vector<DecodedInst> table(prog.size());
    for (Pc pc = 0; pc < prog.size(); ++pc) {
        const isa::Instruction &inst = prog.at(pc);
        DecodedInst &d = table[pc];
        d.hazard = inst.hazardMask();
        d.writes_dst = inst.writesDst();
        d.unit = inst.unit() == isa::UnitClass::CTRL ? isa::UnitClass::MAD
                                                     : inst.unit();
    }
    return table;
}

IBuffer::IBuffer(unsigned num_warps, unsigned slots_per_warp)
    : slots_(slots_per_warp),
      entries_(size_t(num_warps) * slots_per_warp)
{
}

void
IBuffer::flushWarp(WarpId w)
{
    for (unsigned s = 0; s < slots_; ++s)
        entry(w, s) = IBufEntry{};
}

} // namespace siwi::pipeline
