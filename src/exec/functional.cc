#include "exec/functional.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hh"

namespace siwi::exec {

using isa::Instruction;
using isa::Opcode;
using isa::SpecialReg;

namespace {

float
asF(u32 x)
{
    return std::bit_cast<float>(x);
}

u32
asU(float x)
{
    return std::bit_cast<u32>(x);
}

u32
readSreg(const ThreadInfo &ti, SpecialReg sr)
{
    switch (sr) {
      case SpecialReg::TID: return u32(ti.tid);
      case SpecialReg::NTID: return u32(ti.ntid);
      case SpecialReg::CTAID: return u32(ti.ctaid);
      case SpecialReg::NCTAID: return u32(ti.nctaid);
      case SpecialReg::GTID: return u32(ti.gtid);
      case SpecialReg::LANE: return u32(ti.lane);
      case SpecialReg::WID: return u32(ti.wid);
      default: panic("bad special register");
    }
}

void
checkLanes(const WarpState &warp, LaneMask mask)
{
    siwi_assert(mask.subsetOf(LaneMask::firstN(warp.width())),
                "lane mask wider than the warp");
}

} // namespace

void
executeAlu(const Instruction &inst, WarpState &warp, LaneMask mask)
{
    if (inst.op == Opcode::NOP)
        return;
    siwi_assert(inst.writesDst(), "executeAlu on non-ALU op");
    checkLanes(warp, mask);

    // Decode once; each case then loops over the active lanes,
    // reading operand rows of the register-major file.
    u32 *d = warp.row(inst.dst);
    auto un = [&](auto f) {
        const u32 *a = warp.row(inst.sa);
        mask.forEach([&](unsigned l) { d[l] = f(a[l]); });
    };
    // The second operand is a register or the immediate.
    auto bin = [&](auto f) {
        const u32 *a = warp.row(inst.sa);
        if (inst.b_is_imm) {
            const u32 b = u32(inst.imm);
            mask.forEach([&](unsigned l) { d[l] = f(a[l], b); });
        } else {
            const u32 *b = warp.row(inst.sb);
            mask.forEach([&](unsigned l) { d[l] = f(a[l], b[l]); });
        }
    };
    auto tri = [&](auto f) {
        const u32 *a = warp.row(inst.sa);
        const u32 *c = warp.row(inst.sc);
        if (inst.b_is_imm) {
            const u32 b = u32(inst.imm);
            mask.forEach([&](unsigned l) { d[l] = f(a[l], b, c[l]); });
        } else {
            const u32 *b = warp.row(inst.sb);
            mask.forEach(
                [&](unsigned l) { d[l] = f(a[l], b[l], c[l]); });
        }
    };
    // Signed operands; a compare's bool becomes 1 or 0.
    auto sbin = [&](auto f) {
        bin([f](u32 a, u32 b) { return u32(f(i32(a), i32(b))); });
    };
    auto fun = [&](auto f) {
        un([f](u32 a) { return asU(f(asF(a))); });
    };
    auto fbin = [&](auto f) {
        bin([f](u32 a, u32 b) { return asU(f(asF(a), asF(b))); });
    };
    auto fcmp = [&](auto f) {
        bin([f](u32 a, u32 b) { return u32(f(asF(a), asF(b))); });
    };

    switch (inst.op) {
      case Opcode::MOV: return un([](u32 a) { return a; });
      case Opcode::MOVI:
        return mask.forEach([&](unsigned l) { d[l] = u32(inst.imm); });
      case Opcode::S2R:
        return mask.forEach([&](unsigned l) {
            d[l] = readSreg(warp.info(l), inst.sreg);
        });
      // Arithmetic wraps mod 2^32 (two's complement); compute in
      // unsigned to keep host-side signed overflow UB out of it.
      case Opcode::IADD: return bin([](u32 a, u32 b) { return a + b; });
      case Opcode::ISUB: return bin([](u32 a, u32 b) { return a - b; });
      case Opcode::IMUL: return bin([](u32 a, u32 b) { return a * b; });
      case Opcode::IMAD:
        return tri([](u32 a, u32 b, u32 c) { return a * b + c; });
      case Opcode::IMIN:
        return sbin([](i32 a, i32 b) { return std::min(a, b); });
      case Opcode::IMAX:
        return sbin([](i32 a, i32 b) { return std::max(a, b); });
      case Opcode::IABS:
        return un([](u32 a) { return i32(a) < 0 ? 0u - a : a; });
      case Opcode::AND: return bin([](u32 a, u32 b) { return a & b; });
      case Opcode::OR: return bin([](u32 a, u32 b) { return a | b; });
      case Opcode::XOR: return bin([](u32 a, u32 b) { return a ^ b; });
      case Opcode::NOT: return un([](u32 a) { return ~a; });
      case Opcode::SHL:
        return bin([](u32 a, u32 b) { return a << (b & 31); });
      case Opcode::SHR:
        return bin([](u32 a, u32 b) { return a >> (b & 31); });
      case Opcode::SRA:
        return sbin([](i32 a, i32 b) { return a >> (b & 31); });
      case Opcode::ISETLT: return sbin([](i32 a, i32 b) { return a < b; });
      case Opcode::ISETLE: return sbin([](i32 a, i32 b) { return a <= b; });
      case Opcode::ISETEQ: return sbin([](i32 a, i32 b) { return a == b; });
      case Opcode::ISETNE: return sbin([](i32 a, i32 b) { return a != b; });
      case Opcode::ISETGE: return sbin([](i32 a, i32 b) { return a >= b; });
      case Opcode::ISETGT: return sbin([](i32 a, i32 b) { return a > b; });
      case Opcode::SEL:
        return tri([](u32 a, u32 b, u32 c) { return a != 0 ? b : c; });
      case Opcode::FADD:
        return fbin([](float a, float b) { return a + b; });
      case Opcode::FSUB:
        return fbin([](float a, float b) { return a - b; });
      case Opcode::FMUL:
        return fbin([](float a, float b) { return a * b; });
      case Opcode::FMAD:
        return tri([](u32 a, u32 b, u32 c) {
            return asU(asF(a) * asF(b) + asF(c));
        });
      case Opcode::FMIN:
        return fbin([](float a, float b) { return std::fmin(a, b); });
      case Opcode::FMAX:
        return fbin([](float a, float b) { return std::fmax(a, b); });
      case Opcode::FABS: return fun([](float a) { return std::fabs(a); });
      case Opcode::FNEG: return fun([](float a) { return -a; });
      case Opcode::FSETLT:
        return fcmp([](float a, float b) { return a < b; });
      case Opcode::FSETLE:
        return fcmp([](float a, float b) { return a <= b; });
      case Opcode::FSETEQ:
        return fcmp([](float a, float b) { return a == b; });
      case Opcode::FSETNE:
        return fcmp([](float a, float b) { return a != b; });
      case Opcode::FSETGE:
        return fcmp([](float a, float b) { return a >= b; });
      case Opcode::FSETGT:
        return fcmp([](float a, float b) { return a > b; });
      case Opcode::I2F: return un([](u32 a) { return asU(float(i32(a))); });
      case Opcode::F2I: return un([](u32 a) { return u32(i32(asF(a))); });
      case Opcode::RCP: return fun([](float a) { return 1.0f / a; });
      case Opcode::RSQ:
        return fun([](float a) { return 1.0f / std::sqrt(a); });
      case Opcode::SQRT: return fun([](float a) { return std::sqrt(a); });
      case Opcode::SIN: return fun([](float a) { return std::sin(a); });
      case Opcode::COS: return fun([](float a) { return std::cos(a); });
      case Opcode::EXP2: return fun([](float a) { return std::exp2(a); });
      case Opcode::LOG2: return fun([](float a) { return std::log2(a); });
      default:
        panic("executeAlu: not an ALU op: ", isa::opName(inst.op));
    }
}

LaneMask
evalBranch(const Instruction &inst, const WarpState &warp,
           LaneMask mask)
{
    switch (inst.op) {
      case Opcode::BRA:
        return mask;
      case Opcode::BNZ:
      case Opcode::BZ: {
        checkLanes(warp, mask);
        const u32 *cond = warp.row(inst.sa);
        const bool want_nonzero = inst.op == Opcode::BNZ;
        LaneMask taken;
        mask.forEach([&](unsigned l) {
            if ((cond[l] != 0) == want_nonzero)
                taken.set(l);
        });
        return taken;
      }
      default:
        panic("evalBranch: not a branch: ", isa::opName(inst.op));
    }
}

void
memAddresses(const Instruction &inst, const WarpState &warp,
             LaneMask mask, mem::LaneAccesses &out)
{
    siwi_assert(isa::isMemory(inst.op), "memAddresses: not a mem op");
    checkLanes(warp, mask);
    const u32 *base = warp.row(inst.sa);
    const Addr offset = Addr(i64(inst.imm));
    out.clear();
    mask.forEach(
        [&](unsigned l) { out.push_back({l, Addr(base[l]) + offset}); });
}

void
executeMem(const Instruction &inst,
           std::span<const mem::LaneAccess> accesses, LaneMask mask,
           WarpState &warp, mem::MemoryImage &memory)
{
    if (inst.op == Opcode::LD) {
        memory.gather(accesses, mask, warp.row(inst.dst));
    } else {
        siwi_assert(inst.op == Opcode::ST, "executeMem: not a mem op");
        memory.scatter(accesses, mask, warp.row(inst.sb));
    }
}

} // namespace siwi::exec
