/**
 * @file
 * Cold Context Table: linked-list store for inactive warp-splits
 * with an asynchronous sideband insertion sorter (paper §3.4).
 */

#ifndef SIWI_DIVERGENCE_CCT_HH
#define SIWI_DIVERGENCE_CCT_HH

#include <optional>
#include <vector>

#include "common/types.hh"

namespace siwi::divergence {

/** CCT statistics. */
struct CctStats
{
    u64 inserts = 0;
    u64 degraded_inserts = 0; //!< sorter busy: pushed at list head
    u64 pops = 0;
    unsigned max_size = 0;
};

/**
 * Per-warp cold context store.
 *
 * Entries are (context id, PC) pairs; the owning SplitHeap keeps the
 * actual context state. The sideband sorter walks the list to insert
 * in PC order, taking one list step per cycle (configurable). If an
 * insertion arrives while the sorter is busy, the table degrades to
 * a stack: the entry is pushed at the head, exactly the fallback the
 * paper describes. Pops always take the head.
 */
class Cct
{
  public:
    struct Entry
    {
        u32 id;
        Pc pc;
    };

    Cct(unsigned capacity, unsigned steps_per_cycle);

    /** Empty the table, statistics too: a fresh one, same storage. */
    void reset();

    /** Entries stored, including one parked in the sorter. */
    unsigned size() const;
    bool empty() const { return size() == 0; }
    bool full() const { return size() >= capacity_; }

    /**
     * Request insertion of a context. Timed: the sideband sorter
     * parks it until the list walk finishes; a second insertion
     * meanwhile degrades to a head push.
     */
    void insert(u32 id, Pc pc, Cycle now);

    /**
     * Pop the head entry (lowest PC when the sorter kept up).
     * Falls back to the parked sorter entry when the list is empty.
     */
    std::optional<Entry> pop(Cycle now);

    /** Lowest PC over all stored entries (exact scan), for CPC1. */
    std::optional<Pc> minPc() const;

    /** Exact min-PC removal, used by the hot-promotion rule. */
    std::optional<Entry> popMin(Cycle now);

    /**
     * Id of a stored context with the given PC, if any (the
     * sideband sorter passes equal-PC entries during its walk, so
     * the owning heap can compact reconverged cold splits).
     */
    std::optional<u32> findByPc(Pc pc) const;

    /**
     * Advance the sideband sorter one cycle. True when the parked
     * entry folded into the list this cycle — the only transition
     * this table makes on its own (everything else is driven by
     * the owning heap).
     */
    bool tick(Cycle now);

    /**
     * Cycle the parked sorter entry is due to fold into the list,
     * or no_wake when the sorter is idle. The fold changes what
     * pop()/minPc()/findByPc() can return, so a caller skipping
     * quiet cycles must not jump past this bound.
     */
    Cycle nextWake() const
    {
        return pending_ ? pending_ready_ : no_wake;
    }

    const CctStats &stats() const { return stats_; }
    unsigned capacity() const { return capacity_; }

  private:
    void finishPending();

    unsigned capacity_;
    unsigned steps_per_cycle_;
    // Capacity-bounded (a handful of entries), so a flat vector
    // beats a node container: head is the front, inserts/erases
    // are tiny contiguous moves, storage is reused across splits.
    std::vector<Entry> list_;

    std::optional<Entry> pending_;
    Cycle pending_ready_ = 0;

    CctStats stats_;
};

} // namespace siwi::divergence

#endif // SIWI_DIVERGENCE_CCT_HH
