/**
 * @file
 * Mask-inclusion lookup for the SWI secondary scheduler (paper §4).
 *
 * The secondary scheduler searches the instruction buffer for a
 * ready instruction whose activity mask fits in the lanes left free
 * by the primary instruction. A CAM would search every entry; the
 * set-associative variant partitions warps into sets indexed by the
 * low-order bits of the primary warp identifier and only searches
 * the primary's set (Figure 9 sweeps the associativity).
 *
 * This class holds the lookup's fixed parts: the warps of each set,
 * built once, and the tie-break RNG. The search itself is one pass
 * over the issue table's ready sets intersected with the primary's
 * set (frontend::IssueScans::lookup).
 */

#ifndef SIWI_PIPELINE_MASK_LOOKUP_HH
#define SIWI_PIPELINE_MASK_LOOKUP_HH

#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "pipeline/warp_set.hh"

namespace siwi::pipeline {

/** Set-associative mask-inclusion lookup: sets and tie-breaks. */
class MaskLookup
{
  public:
    /**
     * @param num_warps warps per pool
     * @param sets set count; 1 = fully associative CAM
     * @param seed pseudo-random tie-breaking seed
     */
    MaskLookup(unsigned num_warps, unsigned sets, u64 seed = 1);

    /**
     * The warps a lookup for primary warp @p prim may search: those
     * whose identifier has @p prim's low-order bits (w % sets).
     */
    const WarpSet &members(WarpId prim) const
    {
        return members_[prim % unsigned(members_.size())];
    }

    /**
     * The best-fit tie-break stream (section 4, "scheduler conflict
     * avoidance"): each tie draws once, in the lookup's candidate
     * order.
     */
    Rng &rng() { return rng_; }

  private:
    std::vector<WarpSet> members_; //!< per set
    Rng rng_;
};

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_MASK_LOOKUP_HH
