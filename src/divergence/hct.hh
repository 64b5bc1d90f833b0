/**
 * @file
 * Hot Context Table sorter network (paper Figure 5(b)).
 *
 * The HCT keeps the two active warp-split contexts of each warp
 * sorted by PC. Each cycle the sorter receives the updated CPC1 and
 * CPC2 and, on divergence, an additional CPC3, then sorts, compacts
 * and merges them: equal PCs merge their activity masks, at most two
 * entries stay hot, a third spills to the CCT, and an emptied slot
 * requests a pop from the CCT.
 */

#ifndef SIWI_DIVERGENCE_HCT_HH
#define SIWI_DIVERGENCE_HCT_HH

#include <array>

#include "common/lane_mask.hh"
#include "common/types.hh"

namespace siwi::divergence {

/** One context flowing through the sorter network. */
struct SorterEntry
{
    Pc pc = invalid_pc;
    LaneMask mask;
    bool valid = false;
    /**
     * Pinned contexts (branch in flight) keep their identity and may
     * not be merged or spilled this cycle.
     */
    bool pinned = false;
    /**
     * Waiting at a thread-block barrier (arrival already counted).
     * Two barrier-blocked contexts at the same PC may merge; a
     * blocked and an unblocked one may not, or the unblocked
     * threads would skip their barrier arrival.
     */
    bool barrier = false;
    /** Opaque context identity carried through the network. */
    u32 id = 0xffffffffu;
};

/** Result of one sorter pass. */
struct SorterResult
{
    /** The (up to) two hot entries, sorted by ascending PC. */
    std::array<SorterEntry, 2> hot;
    /** Valid when a third context must spill to the CCT. */
    SorterEntry spill;
    /** True when a hot slot is empty and a CCT pop is wanted. */
    bool want_pop = false;
    /** Number of merges performed (statistics). */
    unsigned merges = 0;
};

/**
 * Combinational sort + compact + merge of up to three contexts.
 *
 * Merging ORs the masks of entries with equal PCs (reconvergence).
 * Pinned entries never merge and are preferentially kept hot, since
 * their in-flight instructions are bound to a hot slot.
 */
SorterResult hctSort(const SorterEntry &a, const SorterEntry &b,
                     const SorterEntry &c);

/**
 * Would a sorter pass over the hot pair alone change nothing?
 * True exactly when hctSort(a, b, {}) returns @p a and @p b in
 * their slots, with no merge, no spill, and no pop that a cold
 * store holding anything (@p cold_empty false) could serve: the
 * pair is PC-ordered (@p a empty only if @p b is too), cannot
 * merge (distinct PCs, or a pinned or barrier mismatch), and
 * wants a pop only when the cold store is empty. A hot context
 * usually just advances one PC, so most passes hit this rule;
 * SplitHeap::restructure returns at once on it.
 */
inline bool
hctSettled(const SorterEntry &a, const SorterEntry &b, bool cold_empty)
{
    if (!a.valid || !b.valid)
        return !b.valid && cold_empty;
    if (a.pc != b.pc)
        return a.pc < b.pc;
    return a.pinned || b.pinned || a.barrier != b.barrier;
}

} // namespace siwi::divergence

#endif // SIWI_DIVERGENCE_HCT_HH
