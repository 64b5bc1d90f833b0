/**
 * @file
 * A cache's in-flight misses (miss status holding registers), kept
 * as a flat array: the L1's in MemorySystem and each L2 slice's in
 * BankedL2.
 */

#ifndef SIWI_MEM_MSHR_FILE_HH
#define SIWI_MEM_MSHR_FILE_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"
#include "mem/cache.hh"

namespace siwi::mem {

/**
 * In-flight missed blocks, at most one entry per block, in no
 * particular order.
 *
 * Nothing that reads the file depends on the array's order: a
 * merge looks for its block, the slot search takes an order
 * statistic of the pending fills, and retire() sorts the due fills
 * by block before installing them. So the file reorders the array
 * in place where that saves a copy, and the array only grows: a
 * warmed-up file never allocates. The ascending block order of
 * the installs is part of the timing model: the cache's
 * replacement state depends on it, and every committed result was
 * produced with it.
 */
class MshrFile
{
  public:
    /** One in-flight miss: its slot is held over [start, fill). */
    struct Miss
    {
        Addr block;
        Cycle start; //!< backend request issue cycle
        Cycle fill;  //!< fill-completion cycle
    };

    /**
     * The in-flight miss to @p block, or null. When there is none,
     * @p pending receives the number of misses whose fill is after
     * @p now (both in one pass; on a match it is left partial).
     */
    const Miss *
    find(Addr block, Cycle now, size_t *pending) const
    {
        size_t n = 0;
        for (const Miss &m : misses_) {
            if (m.block == block)
                return &m;
            n += m.fill > now;
        }
        *pending = n;
        return nullptr;
    }

    /**
     * The cycle the (@p k + 1)-th earliest of the fills after
     * @p now completes (k < the number of such fills). Reorders the
     * file.
     */
    Cycle kthPendingFill(Cycle now, size_t k);

    /** Record a miss to @p block (not in the file). */
    void
    add(Addr block, Cycle start, Cycle fill)
    {
        misses_.push_back({block, start, fill});
        next_fill_ = std::min(next_fill_, fill);
    }

    /**
     * Install into @p cache every fill due at @p now, in ascending
     * block order, and free their entries. Returns at once while
     * nothing is due.
     */
    void
    retire(Cycle now, L1Cache &cache)
    {
        if (next_fill_ <= now)
            retireDue(now, cache);
    }

    /** Earliest fill in the file, or no_wake when it is empty. */
    Cycle nextFill() const { return next_fill_; }

    /** Misses whose slot is held at @p now (start <= now < fill). */
    unsigned occupancy(Cycle now) const;

    /** Drop every entry. */
    void clear();

  private:
    void retireDue(Cycle now, L1Cache &cache);

    std::vector<Miss> misses_;
    /** Earliest fill in misses_: retire() reads it, not the array. */
    Cycle next_fill_ = no_wake;
};

} // namespace siwi::mem

#endif // SIWI_MEM_MSHR_FILE_HH
