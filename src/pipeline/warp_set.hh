/**
 * @file
 * Dense warp-id set backed by 64-bit words: the SM's per-stage work
 * sets, the issue table's ready sets and the mask lookup's sets.
 *
 * The per-cycle hot loops (fetch, heap upkeep, sleep evaluation)
 * each iterate their own stage's work set, word by word, so a cycle
 * visits only the warps that stage may have work for; the issue
 * stage combines the issue table's sets word-wise and counts them.
 * Iteration is ascending warp order — the same order a full scan
 * uses — so scheduling policies see identical candidate sequences;
 * a cyclic variant serves the round-robin cursors.
 *
 * The words live inline, sized for the largest machine (num_warps
 * <= capacity), so copying, combining and walking a set never
 * leaves the object; only the first ceil(num_warps / 64) are used.
 */

#ifndef SIWI_PIPELINE_WARP_SET_HH
#define SIWI_PIPELINE_WARP_SET_HH

#include <bit>
#include <type_traits>

#include "common/log.hh"
#include "common/types.hh"

namespace siwi::pipeline {

/** Fixed-capacity bitset over warp ids with ordered iteration. */
class WarpSet
{
  public:
    /** Most warps a set holds: SMConfig's num_warps bound. */
    static constexpr unsigned capacity = 1024;

    explicit WarpSet(unsigned num_warps = 0)
    {
        reset(num_warps);
    }

    /** Resize to @p num_warps (at most capacity) and clear it. */
    void reset(unsigned num_warps)
    {
        siwi_assert(num_warps <= capacity, "a WarpSet holds at most ",
                    capacity, " warps, not ", num_warps);
        n_words_ = (num_warps + 63) / 64;
        for (u64 &word : words_)
            word = 0;
    }

    bool contains(WarpId w) const
    {
        return (words_[w >> 6] >> (w & 63)) & 1;
    }

    void insert(WarpId w) { words_[w >> 6] |= bit(w); }
    void erase(WarpId w) { words_[w >> 6] &= ~bit(w); }

    // Word-wise set algebra; the operand has the same capacity.
    /** Add every member of @p o. */
    WarpSet &operator|=(const WarpSet &o)
    {
        for (unsigned i = 0; i < n_words_; ++i)
            words_[i] |= o.words_[i];
        return *this;
    }
    /** Keep only the members of @p o. */
    WarpSet &operator&=(const WarpSet &o)
    {
        for (unsigned i = 0; i < n_words_; ++i)
            words_[i] &= o.words_[i];
        return *this;
    }

    /** Number of members. */
    unsigned count() const
    {
        unsigned n = 0;
        for (unsigned i = 0; i < n_words_; ++i)
            n += unsigned(std::popcount(words_[i]));
        return n;
    }

    /**
     * Members a cyclic scan from @p start visits before it reaches
     * @p stop: those in [start, stop), wrapping past the last warp
     * when @p stop < @p start (none when they are equal).
     */
    unsigned countWrapped(WarpId start, WarpId stop) const
    {
        unsigned to_stop = countBelow(stop);
        unsigned to_start = countBelow(start);
        return stop >= start ? to_stop - to_start
                             : count() - to_start + to_stop;
    }

    /**
     * Visit members in ascending order. Erasing the warp currently
     * being visited is allowed (each word is iterated from a local
     * copy); inserting during iteration is not.
     */
    template <typename F> void forEach(F &&f) const
    {
        for (unsigned i = 0; i < n_words_; ++i) {
            if (visitWord(i, words_[i], f))
                return;
        }
    }

    /**
     * Visit members cyclically: first those >= @p start ascending,
     * then those < @p start ascending. @p f returns true to stop the
     * scan (a fetch slot was consumed). Erasing the visited warp is
     * allowed, as in forEach().
     * @return true when @p f stopped the scan
     */
    template <typename F> bool forEachWrapped(WarpId start, F &&f) const
    {
        const unsigned first = start >> 6;
        const u64 at_or_after = ~u64(0) << (start & 63);
        // Tail: members at or after the cursor.
        for (unsigned i = first; i < n_words_; ++i) {
            u64 word = words_[i];
            if (i == first)
                word &= at_or_after;
            if (visitWord(i, word, f))
                return true;
        }
        // Wrapped head: members strictly before the cursor.
        for (unsigned i = 0; i <= first && i < n_words_; ++i) {
            u64 word = words_[i];
            if (i == first)
                word &= ~at_or_after;
            if (visitWord(i, word, f))
                return true;
        }
        return false;
    }

  private:
    static u64 bit(WarpId w) { return u64(1) << (w & 63); }

    /** Number of members below @p w. */
    unsigned countBelow(WarpId w) const
    {
        const unsigned word = w >> 6;
        unsigned n = 0;
        for (unsigned i = 0; i < word; ++i)
            n += unsigned(std::popcount(words_[i]));
        if (word < n_words_)
            n += unsigned(std::popcount(words_[word] & (bit(w) - 1)));
        return n;
    }

    /**
     * Call @p f on each warp of word @p i's bits @p word, ascending,
     * until it returns true (a void @p f never stops the walk).
     * @return true when @p f stopped the walk
     */
    template <typename F> static bool visitWord(unsigned i, u64 word, F &f)
    {
        while (word) {
            WarpId w = WarpId(i * 64 + unsigned(std::countr_zero(word)));
            word &= word - 1;
            if constexpr (std::is_void_v<decltype(f(w))>) {
                f(w);
            } else if (f(w)) {
                return true;
            }
        }
        return false;
    }

    u64 words_[capacity / 64];
    unsigned n_words_; //!< words in use: ceil(num_warps / 64)
};

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_WARP_SET_HH
