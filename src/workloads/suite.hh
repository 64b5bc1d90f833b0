/**
 * @file
 * Internal: per-suite workload factories feeding the registry,
 * and the buffer layout and verification helpers the suites share.
 */

#ifndef SIWI_WORKLOADS_SUITE_HH
#define SIWI_WORKLOADS_SUITE_HH

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "isa/builder.hh"
#include "workloads/workload.hh"

namespace siwi::workloads {

/** Device buffers: up to three inputs and two outputs. */
inline constexpr Addr in_a = 0x0100000;
inline constexpr Addr in_b = 0x0200000;
inline constexpr Addr in_c = 0x0300000;
inline constexpr Addr out_a = 0x0400000;
inline constexpr Addr out_b = 0x0500000;

/** Set @p why to "what[i]: expected E, got G"; returns false. */
template <typename T>
bool
mismatch(std::string *why, const char *what, size_t i, T expect,
         T got)
{
    if (why) {
        std::ostringstream os;
        os << what << "[" << i << "]: expected " << expect << ", got "
           << got;
        *why = os.str();
    }
    return false;
}

/** Compare one float word within a relative tolerance of 1e-4. */
inline bool
checkF(const mem::MemoryImage &mem, Addr addr, float expect,
       const char *what, size_t i, std::string *why)
{
    float got = mem.readF32(addr);
    float tol = 1e-4f * (1.0f + std::fabs(expect));
    if (std::fabs(got - expect) <= tol)
        return true;
    return mismatch(why, what, i, expect, got);
}

/** Compare one integer word exactly. */
inline bool
checkI(const mem::MemoryImage &mem, Addr addr, u32 expect,
       const char *what, size_t i, std::string *why)
{
    u32 got = mem.read32(addr);
    if (got == expect)
        return true;
    return mismatch(why, what, i, expect, got);
}

/** Emit the byte address base + gtid*4 into a new register. */
inline isa::Reg
emitGtidAddr(isa::KernelBuilder &b, isa::Reg gtid, Addr base)
{
    isa::Reg addr = b.reg();
    b.shl(addr, gtid, isa::Imm(2));
    b.iadd(addr, addr, isa::Imm(i32(base)));
    return addr;
}

/** The ten regular workloads (Figure 7a). */
std::vector<const Workload *> regularSuite();

/** The nine non-TMD irregular workloads (Figure 7b). */
std::vector<const Workload *> irregularSuite();

/** TMD1 and TMD2 (Figure 7b, excluded from means). */
std::vector<const Workload *> tmdSuite();

} // namespace siwi::workloads

#endif // SIWI_WORKLOADS_SUITE_HH
