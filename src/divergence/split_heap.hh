/**
 * @file
 * Per-warp sorted heap of warp-split contexts (paper section 3.4).
 *
 * Composes the Hot Context Table (two schedulable contexts, kept
 * PC-sorted by the sorter network) with the Cold Context Table
 * (linked-list overflow store with an asynchronous sideband sorter).
 * Thread-frontier reconvergence emerges from the merge-on-equal-PC
 * rule; SBI schedules both hot contexts simultaneously.
 */

#ifndef SIWI_DIVERGENCE_SPLIT_HEAP_HH
#define SIWI_DIVERGENCE_SPLIT_HEAP_HH

#include <array>
#include <optional>
#include <vector>

#include "common/field_list.hh"
#include "divergence/cct.hh"
#include "divergence/hct.hh"

namespace siwi::divergence {

/** Sentinel context id. */
constexpr u32 no_ctx = 0xffffffffu;

/** One warp-split context. */
struct SplitContext
{
    Pc pc = invalid_pc;
    LaneMask mask;
    bool valid = false;

    /** Branch/exit issued, resolution in flight: pinned hot. */
    bool branch_pending = false;
    /** Waiting at a thread-block barrier. */
    bool barrier_blocked = false;

    /**
     * Bumped whenever pc or mask changes; instruction-buffer entries
     * snapshot it and refetch when stale.
     */
    u32 version = 0;
};

/** SplitHeapConfig's fields (common/field_list.hh). */
#define SIWI_SPLIT_HEAP_CONFIG_FIELDS(X, S, P, K) \
    X(P, K, U32, cct_capacity, 8, \
      "Cold Context Table entries per warp", 1, 1024) \
    X(P, K, U32, cct_steps_per_cycle, 1, \
      "CCT sideband-sorter steps per cycle")

/** Heap configuration (per warp). */
struct SplitHeapConfig
{
    SIWI_SPLIT_HEAP_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )
};

/** Heap statistics. */
struct SplitHeapStats
{
    u64 splits = 0;
    u64 merges = 0;
    u64 promotions = 0;
    unsigned max_live_contexts = 0;
};

/**
 * The warp-split heap of one warp.
 *
 * The pipeline addresses contexts by id (stable across slot moves),
 * schedules only the hot slots, and reports control outcomes through
 * the mutation methods. The heap keeps hot = lowest PCs, merges
 * reconverging splits, spills to / refills from the CCT, and
 * promotes lower-PC cold contexts over unpinned hot ones.
 */
class SplitHeap
{
  public:
    static constexpr unsigned num_hot = 2;

    SplitHeap(const SplitHeapConfig &cfg, LaneMask initial,
              Pc entry_pc = 0);

    /** Become a fresh heap (versions, statistics), same storage. */
    void reset(LaneMask initial, Pc entry_pc = 0);

    /** Context id in hot slot @p slot, or no_ctx. */
    u32 hotId(unsigned slot) const;

    const SplitContext &ctx(u32 id) const;
    /** Mutable context access; marks the heap for re-sorting. */
    SplitContext &ctxMut(u32 id);

    /** All threads exited? */
    bool done() const;

    /** Lanes still live across all contexts. */
    LaneMask liveMask() const;

    /** Exact minimum PC over all live contexts (the paper's CPC1). */
    Pc cpc1() const;

    /** Number of live contexts (hot + cold). */
    unsigned liveContexts() const;

    /** Room to create one more warp-split? */
    bool canSplit() const;

    /** Non-control instruction issued: advance @p id to @p next. */
    void advance(u32 id, Pc next, Cycle now);

    /**
     * Branch resolved for @p id: path A (pc_a/m_a) and optional path
     * B. Empty m_b = uniform branch. Clears branch_pending.
     */
    void branchResolve(u32 id, Pc pc_a, LaneMask m_a, Pc pc_b,
                       LaneMask m_b, Cycle now);

    /** EXIT resolved: threads of @p id are done. */
    void exitResolve(u32 id, Cycle now);

    /**
     * Memory divergence split: lanes in @p advancing move to
     * @p next; the rest stay at the current PC to replay.
     */
    void memorySplit(u32 id, LaneMask advancing, Pc next, Cycle now);

    /** Release every barrier-blocked context to @p next-of-its-pc. */
    void barrierRelease(Cycle now);

    /**
     * Per-cycle maintenance: CCT sorter step, promotion rule.
     * @return true when any heap state changed (a sorter fold,
     *         merge, spill, pop, hot-slot move or promotion) —
     *         the SM's quiet-cycle detector keys on this.
     */
    bool tick(Cycle now);

    /**
     * Earliest future cycle this heap changes state on its own:
     * the parked CCT sorter entry's fold time, or no_wake. Every
     * other transition is driven by the pipeline (advance, branch
     * and exit resolution, memory splits, barrier release).
     */
    Cycle nextWake() const { return cct_.nextWake(); }

    /**
     * No restructuring work is pending: the last tick() pass found
     * nothing to do and no mutation has happened since, so until
     * the owning warp acts or nextWake() arrives, repeating tick()
     * provably returns false. The warp sleep/wake machinery keys
     * on this — a sleeping warp's heap must not want maintenance.
     */
    bool quiescent() const { return !dirty_; }

    /**
     * tick() can never change this heap again until the pipeline
     * mutates it: no sorter fold is pending, a sorter pass over the
     * hot pair changes nothing (hctSettled), and the promotion rule
     * finds no unpinned hot context to demote. Dirty or not, a
     * restructure pass is then a no-op and promote() returns false.
     */
    bool settled() const;

    const SplitHeapStats &stats() const { return stats_; }
    const CctStats &cctStats() const { return cct_.stats(); }

  private:
    u32 alloc(Pc pc, LaneMask mask);
    void freeCtx(u32 id);
    bool restructure(std::optional<u32> incoming, Cycle now);
    bool promote(Cycle now);
    /**
     * Hot slot promote() would demote for a cold context at
     * @p cold_min: the highest-PC unpinned hot context it beats
     * (a barrier-blocked one loses ties), or -1.
     */
    int promoteVictim(Pc cold_min) const;
    /** Insert into the CCT, compacting with an equal-PC entry. */
    void coldInsert(u32 id, Cycle now);
    SorterEntry toEntry(u32 id) const;

    SplitHeapConfig cfg_;
    std::vector<SplitContext> pool_;
    std::vector<u32> free_;
    std::array<u32, num_hot> hot_;
    Cct cct_;
    SplitHeapStats stats_;

    /**
     * Set by every mutation, cleared when a full tick() pass finds
     * nothing to do. A no-change pass is side-effect-free and pure
     * in the heap state, so until the next mutation (or a sideband
     * sorter fold, which tick() checks first) repeating it must
     * return false again — tick() short-circuits to exactly that.
     */
    bool dirty_ = true;
};

} // namespace siwi::divergence

#endif // SIWI_DIVERGENCE_SPLIT_HEAP_HH
