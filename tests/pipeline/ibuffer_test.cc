/**
 * @file
 * Instruction-buffer tests: the per-launch decode table against the
 * instructions it was built from.
 */

#include <gtest/gtest.h>

#include "core/kernel.hh"
#include "pipeline/ibuffer.hh"
#include "workloads/workload.hh"

namespace siwi::pipeline {
namespace {

/** Every record of decodeProgram(@p prog) decodes its instruction. */
void
expectDecoded(const isa::Program &prog, const std::string &what)
{
    const std::vector<DecodedInst> table = decodeProgram(prog);
    ASSERT_EQ(table.size(), size_t(prog.size())) << what;
    for (Pc pc = 0; pc < prog.size(); ++pc) {
        const isa::Instruction &inst = prog.at(pc);
        const isa::UnitClass unit = inst.unit() == isa::UnitClass::CTRL
                                        ? isa::UnitClass::MAD
                                        : inst.unit();
        SCOPED_TRACE(what + " pc " + std::to_string(pc) + ": " +
                     inst.toString());
        EXPECT_EQ(table[pc].hazard, inst.hazardMask());
        EXPECT_EQ(table[pc].writes_dst, inst.writesDst());
        EXPECT_EQ(table[pc].unit, unit);
    }
}

TEST(DecodeProgram, MatchesEveryWorkloadsInstructions)
{
    // Raw and compiled, at every size: the SM launches the compiled
    // program, whose layout pass adds SYNC and branch instructions.
    unsigned instructions = 0;
    for (const workloads::Workload *wl : workloads::allWorkloads()) {
        for (workloads::SizeClass sc :
             {workloads::SizeClass::Tiny, workloads::SizeClass::Full,
              workloads::SizeClass::Chip}) {
            workloads::Instance inst = wl->instance(sc);
            std::string what = std::string(wl->name()) + " " +
                               workloads::size_class_names[unsigned(sc)];
            expectDecoded(inst.raw, what + " raw");
            core::Kernel kernel =
                core::Kernel::compile(inst.raw, inst.compile);
            expectDecoded(kernel.program(), what + " compiled");
            instructions += kernel.program().size();
        }
    }
    EXPECT_GT(instructions, 1000u);
}

} // namespace
} // namespace siwi::pipeline
