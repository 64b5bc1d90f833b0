/**
 * @file
 * Per-warp scoreboard tracking in-flight register writes.
 *
 * This is the "brute-force" design the paper mentions in §3.4: each
 * entry stores the destination register and the execution mask of
 * the in-flight instruction, so dependencies between
 * non-intersecting warp-splits are ignored exactly. The paper's
 * storage-optimized dependency-matrix variant lives in
 * dep_matrix.hh and is validated against this one.
 */

#ifndef SIWI_PIPELINE_SCOREBOARD_HH
#define SIWI_PIPELINE_SCOREBOARD_HH

#include <vector>

#include "common/lane_mask.hh"

namespace siwi::pipeline {

/**
 * SM-wide scoreboard, partitioned per warp with a fixed number of
 * entries per warp (6 in Table 2). Instructions that write a
 * register allocate an entry at issue and release it at writeback.
 */
class Scoreboard
{
  public:
    Scoreboard(unsigned num_warps, unsigned entries_per_warp);

    /** Any entry free for warp @p w? */
    bool hasFreeEntry(WarpId w) const;

    /** Entries in use for warp @p w. */
    unsigned used(WarpId w) const;

    /**
     * Allocate an entry for an in-flight write of @p dst by lanes
     * @p mask. @return entry index for release().
     */
    unsigned allocate(WarpId w, RegIdx dst, LaneMask mask);

    /** Writeback: release entry @p idx of warp @p w. */
    void release(WarpId w, unsigned idx);

    /**
     * Would issuing an instruction with hazard-register mask
     * @p hazard (isa::Instruction::hazardMask: the sources, plus
     * the destination when one is written) and execution mask
     * @p mask conflict with any in-flight write (RAW on a source,
     * WAW on the destination)? Lane masks that do not intersect
     * never conflict (warp-splits are independent).
     */
    bool conflicts(WarpId w, u64 hazard, LaneMask mask) const;

    /** Drop all entries of a warp (kernel/block boundary). */
    void flushWarp(WarpId w);

  private:
    struct Entry
    {
        bool valid = false;
        RegIdx dst = 0;
        LaneMask mask;
    };

    const Entry &entry(WarpId w, unsigned i) const;
    Entry &entry(WarpId w, unsigned i);

    unsigned entries_per_warp_;
    std::vector<Entry> entries_;
};

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_SCOREBOARD_HH
