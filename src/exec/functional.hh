/**
 * @file
 * Functional semantics of the SIMT ISA.
 *
 * This is the role the Barra functional simulator played for the
 * paper's evaluation: it defines what each instruction computes,
 * independent of the timing model. The timing pipeline calls into
 * this module at issue time; results are deterministic regardless of
 * the schedule, which the cross-configuration integration tests rely
 * on.
 */

#ifndef SIWI_EXEC_FUNCTIONAL_HH
#define SIWI_EXEC_FUNCTIONAL_HH

#include <span>

#include "common/lane_mask.hh"
#include "exec/warp_state.hh"
#include "isa/instruction.hh"
#include "mem/memory_image.hh"

namespace siwi::exec {

/**
 * Execute an ALU/SFU instruction for every lane in @p mask.
 * @pre the instruction is not a branch, memory op, or BAR/EXIT/SYNC.
 */
void executeAlu(const isa::Instruction &inst, WarpState &warp,
                LaneMask mask);

/**
 * Evaluate a conditional or unconditional branch.
 * @return the sub-mask of @p mask that takes the branch.
 */
LaneMask evalBranch(const isa::Instruction &inst, const WarpState &warp,
                    LaneMask mask);

/**
 * Per-lane addresses of a memory instruction for lanes in @p mask,
 * in ascending lane order, written to @p out.
 */
void memAddresses(const isa::Instruction &inst, const WarpState &warp,
                  LaneMask mask, mem::LaneAccesses &out);

/**
 * Functionally perform a load or store for the lanes of @p accesses
 * (memAddresses' output) that are in @p mask, against @p memory
 * (values move immediately; timing is handled elsewhere). When
 * several lanes store to one address, the highest lane's value
 * lands.
 */
void executeMem(const isa::Instruction &inst,
                std::span<const mem::LaneAccess> accesses, LaneMask mask,
                WarpState &warp, mem::MemoryImage &memory);

} // namespace siwi::exec

#endif // SIWI_EXEC_FUNCTIONAL_HH
