/**
 * @file
 * Instruction buffer: one decoded entry per warp context slot.
 */

#ifndef SIWI_PIPELINE_IBUFFER_HH
#define SIWI_PIPELINE_IBUFFER_HH

#include <vector>

#include "common/lane_mask.hh"
#include "isa/instruction.hh"

namespace siwi::pipeline {

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

    // Decoded once at fetch, so issue-stage probes never decode.
    u64 hazard = 0;          //!< inst.hazardMask()
    bool writes_dst = false; //!< inst.writesDst()
    /** Execution-group class it issues to (CTRL runs on MAD). */
    isa::UnitClass unit = isa::UnitClass::MAD;
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

    IBufEntry &entry(WarpId w, unsigned slot);
    const IBufEntry &entry(WarpId w, unsigned slot) const;

    /** Find a valid entry for context @p ctx_id of warp @p w. */
    IBufEntry *findCtx(WarpId w, u32 ctx_id);
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
