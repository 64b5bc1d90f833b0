/**
 * @file
 * Instruction buffer: one decoded entry per warp context slot.
 */

#ifndef SIWI_PIPELINE_IBUFFER_HH
#define SIWI_PIPELINE_IBUFFER_HH

#include <vector>

#include "common/lane_mask.hh"
#include "common/log.hh"
#include "isa/instruction.hh"

namespace siwi::isa {
class Program;
} // namespace siwi::isa

namespace siwi::pipeline {

/** What the issue stage reads of an instruction, decoded once. */
struct DecodedInst
{
    u64 hazard = 0;          //!< Instruction::hazardMask()
    bool writes_dst = false; //!< Instruction::writesDst()
    /** Execution-group class it issues to (CTRL runs on MAD). */
    isa::UnitClass unit = isa::UnitClass::MAD;
};

/**
 * Decode every instruction of @p prog, indexed by PC. The SM builds
 * this table once per launch, and each fetch copies its PC's record
 * into the buffer entry.
 */
std::vector<DecodedInst> decodeProgram(const isa::Program &prog);

/** One decoded, ready-to-schedule instruction. */
struct IBufEntry
{
    bool valid = false;
    /** Parked in the cascade register; fetch must not overwrite. */
    bool claimed = false;

    u32 ctx_id = 0;      //!< owning warp-split context
    u32 ctx_version = 0; //!< context version at fetch time

    isa::Instruction inst;
    Pc pc = invalid_pc;
    LaneMask mask;
    u64 seq = 0; //!< fetch sequence number (age for oldest-first)

    // Copied from the launch's decodeProgram() at fetch, so the
    // issue stage never decodes.
    u64 hazard = 0;          //!< DecodedInst::hazard
    bool writes_dst = false; //!< DecodedInst::writes_dst
    isa::UnitClass unit = isa::UnitClass::MAD; //!< DecodedInst::unit
};

/**
 * The SM instruction buffer: per warp, one entry per front-end slot
 * (two in SBI configurations, Figure 3). Entries are tagged with the
 * context id and version; a stale tag means the warp-split has
 * branched, merged or been re-sorted, and the slot must refetch.
 */
class IBuffer
{
  public:
    IBuffer(unsigned num_warps, unsigned slots_per_warp);

    unsigned slotsPerWarp() const { return slots_; }

    // Inline: row derivation and fetch call these several times per
    // warp and cycle.
    IBufEntry &entry(WarpId w, unsigned slot)
    {
        siwi_assert(slot < slots_, "bad ibuffer slot");
        return entries_[size_t(w) * slots_ + slot];
    }
    const IBufEntry &entry(WarpId w, unsigned slot) const
    {
        return const_cast<IBuffer *>(this)->entry(w, slot);
    }

    /** Find a valid entry for context @p ctx_id of warp @p w. */
    IBufEntry *findCtx(WarpId w, u32 ctx_id)
    {
        for (unsigned s = 0; s < slots_; ++s) {
            IBufEntry &e = entry(w, s);
            if (e.valid && e.ctx_id == ctx_id)
                return &e;
        }
        return nullptr;
    }
    const IBufEntry *findCtx(WarpId w, u32 ctx_id) const
    {
        return const_cast<IBuffer *>(this)->findCtx(w, ctx_id);
    }

    /** Drop every entry of warp @p w (kernel/block boundary). */
    void flushWarp(WarpId w);

  private:
    unsigned slots_;
    std::vector<IBufEntry> entries_;
};

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_IBUFFER_HH
