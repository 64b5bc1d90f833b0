#include "isa/instruction.hh"

#include <sstream>

#include "common/log.hh"

namespace siwi::isa {

SrcRegs
Instruction::srcRegs() const
{
    SrcRegs regs;
    switch (opInfo(op).form) {
      case OperandForm::None:
      case OperandForm::DstImm:
      case OperandForm::DstSreg:
      case OperandForm::Bra:
      case OperandForm::Sync:
        break;
      case OperandForm::DstSa:
        regs.push(sa);
        break;
      case OperandForm::DstSaSb:
        regs.push(sa);
        if (!b_is_imm)
            regs.push(sb);
        break;
      case OperandForm::DstSaSbSc:
        regs.push(sa);
        if (!b_is_imm)
            regs.push(sb);
        regs.push(sc);
        break;
      case OperandForm::Load:
        regs.push(sa);
        break;
      case OperandForm::Store:
        regs.push(sa);
        regs.push(sb);
        break;
      case OperandForm::CondBra:
        regs.push(sa);
        break;
    }
    return regs;
}

u64
Instruction::hazardMask() const
{
    u64 m = 0;
    for (RegIdx r : srcRegs())
        m |= u64(1) << r;
    if (writesDst())
        m |= u64(1) << dst;
    return m;
}

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << opName(op);
    const auto &info = opInfo(op);
    switch (info.form) {
      case OperandForm::None:
        break;
      case OperandForm::DstSa:
        os << " r" << unsigned(dst) << ", r" << unsigned(sa);
        break;
      case OperandForm::DstSaSb:
        os << " r" << unsigned(dst) << ", r" << unsigned(sa) << ", ";
        if (b_is_imm)
            os << "#" << imm;
        else
            os << "r" << unsigned(sb);
        break;
      case OperandForm::DstSaSbSc:
        os << " r" << unsigned(dst) << ", r" << unsigned(sa) << ", ";
        if (b_is_imm)
            os << "#" << imm;
        else
            os << "r" << unsigned(sb);
        os << ", r" << unsigned(sc);
        break;
      case OperandForm::DstImm:
        os << " r" << unsigned(dst) << ", #" << imm;
        break;
      case OperandForm::DstSreg:
        os << " r" << unsigned(dst) << ", %" << sregName(sreg);
        break;
      case OperandForm::Load:
        os << " r" << unsigned(dst) << ", [r" << unsigned(sa)
           << "+" << imm << "]";
        break;
      case OperandForm::Store:
        os << " [r" << unsigned(sa) << "+" << imm << "], r"
           << unsigned(sb);
        break;
      case OperandForm::Bra:
        os << " L" << target;
        break;
      case OperandForm::CondBra:
        os << " r" << unsigned(sa) << ", L" << target;
        if (reconv != invalid_pc)
            os << ", !L" << reconv;
        break;
      case OperandForm::Sync:
        os << " @L" << div;
        break;
    }
    return os.str();
}

} // namespace siwi::isa
