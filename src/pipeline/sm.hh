/**
 * @file
 * The streaming-multiprocessor cycle-level model.
 *
 * One SM object simulates one launch on one SM, in any of the
 * five pipeline configurations of the paper's evaluation (Figure 7):
 * the Fermi-like stack baseline, the 64-wide thread-frontier
 * reference, SBI, SWI, and SBI+SWI. See docs/DESIGN.md for the pipeline
 * structure and the interpretation notes.
 *
 * The SM owns warp/block/barrier/event state, the instruction
 * buffer, the scoreboard, the execution groups and the memory
 * pipeline. The per-cycle fetch and select/issue decisions live in
 * the front-end (a frontend::FrontEnd member built from this SM's
 * configuration, and a friend; see src/frontend/front_end.hh),
 * which calls this SM's fetch and issue primitives directly.
 */

#ifndef SIWI_PIPELINE_SM_HH
#define SIWI_PIPELINE_SM_HH

#include <functional>
#include <optional>
#include <queue>
#include <string_view>
#include <vector>

#include "core/stats.hh"
#include "divergence/reconv_stack.hh"
#include "divergence/split_heap.hh"
#include "exec/warp_state.hh"
#include "frontend/front_end.hh"
#include "isa/program.hh"
#include "mem/coalescer.hh"
#include "mem/memory_image.hh"
#include "mem/memory_system.hh"
#include "pipeline/config.hh"
#include "pipeline/exec_unit.hh"
#include "pipeline/ibuffer.hh"
#include "pipeline/scoreboard.hh"
#include "pipeline/warp_set.hh"

namespace siwi::pipeline {

/** One issue, for pipeline-diagram tracing (Figure 2). */
struct IssueEvent
{
    Cycle cycle;
    WarpId warp;
    Pc pc;
    LaneMask mask;
    /**
     * Execution group name. A view into the group's name storage
     * — stable while the SM lives, but the SM may not outlive
     * the launch call (core::Gpu builds its SMs per launch), so
     * a hook that retains events beyond the launch must copy
     * this field (std::string(e.unit)). It is a view so that
     * tracing never allocates and cannot perturb
     * timing-sensitive debugging runs.
     */
    std::string_view unit;
    bool secondary;      //!< issued by the secondary scheduler
    unsigned occupancy;  //!< group cycles (waves / transactions)
};

/**
 * A launch's CTA dispatcher, shared by its SMs: a cursor over the
 * grid. core::Gpu builds and steps its SMs in index order, so chip
 * SMs start round-robin (SM i runs CTA i) and each block retirement
 * hands the next pending CTA to the SM that freed the slot.
 */
struct CtaDispatch
{
    unsigned grid_blocks = 0;
    /**
     * Chip SMs take at most one CTA per call and poll every cycle
     * (GigaThread-style); a lone SM takes every CTA that fits, when
     * built and on each block retirement.
     */
    bool one_per_cycle = false;
    unsigned next = 0; //!< the next CTA to hand out

    /** The next CTA id, or -1 once the grid is exhausted. */
    int take() { return next < grid_blocks ? int(next++) : -1; }
};

/**
 * Cycle-level SM simulator.
 */
class SM
{
  public:
    /**
     * One launch: CTAs of @p block_threads threads of @p prog (which
     * must outlive the SM) taken from @p ctas, the first ones here.
     * @param backend the chip's memory backend (a private DRAM
     *        channel for the paper's single SM); not owned
     * @param port this SM's interconnect port on the backend (its
     *        SM index); ignored by a private channel
     */
    SM(const SMConfig &cfg, mem::MemoryImage &memory,
       mem::MemoryBackend &backend, unsigned port,
       const isa::Program &prog, unsigned block_threads,
       CtaDispatch &ctas);

    // The front-end keeps a reference to its SM.
    SM(const SM &) = delete;
    SM &operator=(const SM &) = delete;

    /** The grid ran dry for this SM and all its blocks retired? */
    bool done() const;

    /**
     * Advance one cycle.
     *
     * Hot-loop cost is O(warps that can act), not O(num_warps):
     * each per-cycle stage — heap maintenance, the front-end
     * candidate scans, fetch, sleep evaluation — walks its own work
     * set alone: the warps the stage may have work for. A set may
     * hold extra warps (their visit finds nothing to do and has no
     * side effect) but never misses one that can act; touchWarp()
     * and the few other input changes named at each set re-enter a
     * warp. A set holds only active warps that are not parked,
     * except that a parked warp stays in the heap set while its CCT
     * sorter fold is pending. Warps proven unable to act
     * (sleepEligible) are parked at the end of each cycle, which
     * takes them out of the other sets; events and barrier releases
     * wake them, and heapMaintenance wakes one whose fold is due,
     * so parking never moves a cycle (it feeds only the sleep and
     * runnable-warp counters). The issue stage selects from the
     * issue table (frontend::IssueTable), whose context views and
     * rows are re-derived only for warps in the stale set that
     * touchWarp() fills; a fetch writes the one row it changed.
     * Fetch, issue and sleep evaluation read the stored views.
     * setSleepAudit() checks that invariant, every current row and
     * view, and every warp outside each set.
     *
     * @return true when the cycle made progress: an event fired, a
     *         heap restructured, the front-end issued or mutated
     *         scheduler state, a fetch or CTA launch happened, or
     *         a statistic that counts per-cycle attempts (SYNC
     *         suspensions) moved. A false return means the SM is
     *         fully asleep — re-stepping it changes nothing until
     *         nextWake(), so the caller may jump time there.
     */
    bool step();

    /**
     * Conservative next-event estimate: the earliest cycle at
     * which anything in this SM can change — the next deferred
     * event (writebacks, branch/exit resolutions and their
     * retries), the earliest execution-group release, the next L1
     * fill, and the next CCT sorter fold of any warp (every warp
     * with a fold pending is in the heap set, parked or not).
     * All of it is local to this SM: a shared backend is passive
     * (see mem::MemoryBackend) and contributes nothing. Every
     * other transition (scoreboard, barriers, fetch, CTA launch)
     * happens only as a consequence of one of these, so after a
     * quiet step() the SM provably re-enters the same quiet state
     * on every cycle before the returned bound — whatever other
     * SMs of a chip do meanwhile. no_wake when no timed state is
     * pending (the SM is dead in the water until the cycle limit).
     */
    Cycle nextWake() const;

    /**
     * Jump the SM clock to @p target (>= now()) without stepping,
     * accounting the difference in skippedCycles(). Only valid
     * after a quiet step() and for target <= nextWake(): the SM
     * state is by construction identical to having stepped every
     * intervening cycle.
     */
    void skipTo(Cycle target);

    /**
     * Cycles fast-forwarded by skipTo() so far. Diagnostic only —
     * deliberately not part of SimStats, so skip-enabled and
     * per-cycle runs produce identical statistics blocks.
     */
    u64 skippedCycles() const { return skipped_cycles_; }

    Cycle now() const { return now_; }

    using TraceHook = std::function<void(const IssueEvent &)>;
    void setTraceHook(TraceHook hook) { trace_ = std::move(hook); }

    /** Statistics snapshot (finalized by finalizeStats()). */
    core::SimStats &stats() { return stats_; }

    /**
     * Fold warp/cache/unit counters into stats_ and return it.
     * core::Gpu calls it once per SM after its launch loop
     * finishes. The backend counters (l2_*, dram_*) stay zero
     * here: the backend belongs to the chip, which reports them.
     */
    core::SimStats finalizeStats();

    /** Multi-line dump of warp/context/barrier state (debugging). */
    std::string debugState() const;

    /**
     * Why the launch cannot finish, or empty. Set when a warp is
     * provably stuck on a full heap (see resolveBranch): every
     * context it could schedule waits on a divergent branch that
     * re-posts because the heap is full, or behind a SYNC gate, and
     * nothing can free a context. The launch loop then ends the
     * launch, which fails the cell.
     */
    const std::string &failure() const { return failure_; }

    /**
     * Work-set oracle (test hook): verify that no inactive or
     * parked warp is in a fetch or sleep-check set, nor in
     * the heap set unless it is parked with a sorter fold pending
     * and not yet due; that every parked warp provably still cannot
     * issue, fetch, bump an observable counter, or restructure its
     * heap; that every issue-table row and context view outside the
     * stale set equals a fresh derivation, ready-set bits included;
     * and that every awake warp outside a work set is one that
     * set's stage has nothing to do for. Pure — uses only
     * non-counting probes, and the derivations rather than the
     * table.
     * @return false with a diagnostic in @p why on any violation
     */
    bool auditSleepingWarps(std::string *why) const;

    /**
     * Process-wide audit switch: when on, every step() of every SM
     * runs auditSleepingWarps() before the issue stage and again
     * after fetch, and panics on a violation. Test-only (the
     * integration oracles flip it around full suite runs); the per
     * -step cost is two relaxed atomic loads when off.
     */
    static void setSleepAudit(bool on);

  private:
    // ------------------------------------------------------------
    // internal structures
    // ------------------------------------------------------------

    using SlotState = frontend::SlotState;
    using SlotRow = frontend::SlotRow;
    using CtxView = frontend::CtxView;
    using CtxViews = frontend::CtxViews;

    struct WarpSlot
    {
        /** Free, its register file and tracker empty (see initWarp). */
        WarpSlot(const SMConfig &cfg, unsigned regs);

        bool active = false;
        int block = -1;
        exec::WarpState state;
        /** The machine's tracker: exactly one of the two is set. */
        std::optional<divergence::ReconvStack> stack;
        std::optional<divergence::SplitHeap> heap;
        bool stack_branch_pending = false;
        bool stack_barrier_blocked = false;
        Cycle last_divergence = ~Cycle(0);

        // --- sleep/wake state (see ARCHITECTURE.md) ---
        /**
         * Parked: provably unschedulable, and in no work set but
         * the heap set (while its CCT sorter fold is pending).
         * Events and barrier releases wake it, and heapMaintenance
         * does when the fold falls due.
         */
        bool asleep = false;
        /** First slept cycle (warp_sleep_cycles accounting). */
        Cycle sleep_since = 0;

        /**
         * Contexts whose divergent branch re-posted because the
         * heap was full and has not resolved since (no_ctx: none).
         * Only a branch-pending context, pinned hot, is ever here.
         */
        u32 full_heap_posts[divergence::SplitHeap::num_hot] = {
            divergence::no_ctx, divergence::no_ctx};

        /**
         * Warps launched into this slot so far (initWarp bumps
         * it). Each event carries the count it was posted under,
         * so one left in flight by a retired tenant (a load whose
         * destination is never read, issued before EXIT) is
         * dropped instead of acting on the slot's next warp, or on
         * the retired warp itself while the slot is still free.
         */
        u32 launch = 0;
    };

    struct BlockSlot
    {
        bool active = false;
        int cta = -1;
        unsigned live_threads = 0;
        unsigned barrier_arrived = 0;
        std::vector<WarpId> warps;
    };

    /** Deferred completion / resolution event. */
    struct Event
    {
        enum class Kind { Writeback, Branch, Exit };
        Kind kind;
        WarpId warp;
        u32 launch = 0; //!< WarpSlot::launch when posted
        u32 ctx_id = 0;
        int sb_entry = -1;
        LaneMask mask;
        LaneMask taken;
        Pc pc = invalid_pc;
        Pc target = invalid_pc; //!< branch target
        Pc reconv = invalid_pc; //!< branch reconvergence point
    };

    /** An Event queued for cycle @c when, @c seq-th posted. */
    struct TimedEvent
    {
        Cycle when;
        u64 seq;
        Event ev;
    };

    /** Heap order: earliest cycle first, FIFO within a cycle. */
    struct LaterEvent
    {
        bool operator()(const TimedEvent &a, const TimedEvent &b) const
        {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    // ------------------------------------------------------------
    // the primitives the front-end (a friend) calls
    // ------------------------------------------------------------
    friend class frontend::FrontEnd;

    IBufEntry *findCtx(WarpId w, u32 ctx_id)
    {
        return ibuf_.findCtx(w, ctx_id);
    }
    /**
     * The issue table, the stale warps' rows re-derived first. Rows
     * move only through this SM's own mutations (an issue, an event,
     * a barrier release), so a scan reads the table where it runs
     * and never across an issueCand().
     */
    const frontend::IssueTable &issueTable();
    /** The unit classes with an execution group free this cycle. */
    frontend::UnitMask freeUnits() const;
    /**
     * Issue the entry buffered for context slot (w, slot) onto the
     * row of @p row (this cycle's primary group) or a free group;
     * false when none is free. Fills @p issued when given.
     */
    bool issueCand(WarpId w, unsigned slot, bool secondary, ExecGroup *row,
                   frontend::PrimaryIssueInfo *issued);
    /** Drop the claim on @p e, @p w's entry, without issuing it. */
    void dropClaim(WarpId w, IBufEntry &e);
    /**
     * Fetch for context slot (w, slot) if it needs it; true when a
     * fetch happened. A failure that holds until w's next
     * touchWarp() — a fresh entry is buffered, the context is
     * invalid, or the buffer is full of unclaimed live entries —
     * drops w from the slot's fetch set.
     */
    bool tryFetch(WarpId w, unsigned slot);

    // ------------------------------------------------------------
    // pipeline stages
    // ------------------------------------------------------------
    /** Queue @p ev at @p when, stamped with its warp's launch. */
    void postEvent(Cycle when, Event ev);
    bool processEvents();
    bool heapMaintenance();

    // --- scheduling helpers ---
    bool syncGated(WarpId w, const IBufEntry &e) const;
    /** A free execution group of class @p cls, or null. */
    ExecGroup *freeGroup(isa::UnitClass cls);

    // --- issue table and work sets ---
    /**
     * @p w changed: its issue-table views and rows are stale from
     * here on, and it enters the sleep-check and fetch sets, whose
     * stages must look at it again. A fetch is the one change that
     * does not touch: it writes its own row (tryFetch).
     */
    void touchWarp(WarpId w)
    {
        stale_.insert(w);
        sleep_check_.insert(w);
        for (unsigned s = 0; s < 2; ++s)
            fetch_work_[s].insert(w);
    }
    /** @p w's heap was reset or mutated: it needs upkeep. */
    void heapTouched(WarpId w)
    {
        if (warps_[w].heap)
            heap_work_.insert(w);
    }
    /**
     * Scheduling view of context slot (w, slot), from the warp's
     * stack or heap. The table stores both views of a warp
     * (deriveRows); only that derivation and the audit call this.
     */
    CtxView ctxView(WarpId w, unsigned slot) const;
    /** Both of @p w's views, derived afresh. */
    CtxViews deriveViews(WarpId w) const
    {
        return {ctxView(w, 0), ctxView(w, 1)};
    }
    /**
     * Row (w, slot) from warp-local state alone, given the slot's
     * view @p cv: its fresh buffered entry, SYNC gate and
     * scoreboard. The one derivation the issue table stores and the
     * audit re-checks; the scans add the live inputs (claimed flag,
     * execution groups).
     */
    SlotRow deriveSlot(WarpId w, const CtxView &cv) const;
    /** The state of @p w's fresh entry @p e: gate and scoreboard. */
    SlotState entryState(WarpId w, const IBufEntry &e) const;
    /** Store @p w's views and both rows, derived afresh. */
    void deriveRows(WarpId w)
    {
        const CtxViews &v = table_.views[w] = deriveViews(w);
        for (unsigned s = 0; s < 2; ++s)
            table_.set(w, s, deriveSlot(w, v[s]));
    }
    /** Re-derive @p w's views and rows if they are stale. */
    void refreshRows(WarpId w)
    {
        if (!stale_.contains(w))
            return;
        stale_.erase(w);
        deriveRows(w);
    }
    /**
     * The buffer entry a fetch for context slot @p slot of warp
     * @p w, whose current views are @p views, would fill, given that
     * no fresh entry of that context is buffered: its stale entry,
     * else a dead one. Null when the context is invalid, its stale
     * entry is parked in the cascade register, or every entry is
     * live; *claimed is then true when a claimed entry is in the
     * way, which the front-end may release without a touch.
     */
    IBufEntry *fetchTarget(WarpId w, const CtxViews &views,
                           unsigned slot, bool *claimed) const;

    // --- per-warp sleep/wake ---
    /**
     * A buffered entry still backs a live context of a warp whose
     * views are @p views (fetch victim rule).
     */
    bool ibufEntryLive(const IBufEntry &e, const CtxViews &views) const;
    /**
     * May warp @p w be parked? True only when no context slot can
     * issue (ignoring execution-group availability, which is
     * shared and timed), no fetch is possible, no SYNC gate would
     * bump the suspension counter, nothing is parked in the
     * cascade register, and the heap has no pending maintenance.
     * Derived afresh, views included, for the audit; sleepEvaluate
     * reads the issue table instead. Pure: never bumps statistics.
     */
    bool sleepEligible(WarpId w) const;
    /**
     * The live part of sleepEligible: @p w is active, has no
     * entry parked in the cascade register, and its heap is
     * quiescent.
     */
    bool liveAllowsSleep(WarpId w) const;
    /**
     * The per-slot part of sleepEligible, given @p w's two rows
     * @p v and the views @p views they were derived from: no context
     * slot can issue, fetch or probe a SYNC gate. Meaningful only
     * while no entry of @p w is claimed.
     */
    bool slotsAllowSleep(WarpId w, const SlotRow (&v)[2],
                         const CtxViews &views) const;
    /** @p w has a CCT sorter fold pending (it is then in the heap set). */
    bool foldPending(WarpId w) const
    {
        return warps_[w].heap && warps_[w].heap->nextWake() != no_wake;
    }
    /**
     * Park every provably blocked warp of the sleep-check set, and
     * empty the set of every warp it visits (end of step()).
     */
    void sleepEvaluate();
    /**
     * @p w was just parked or retired: drop it from every work set,
     * except that a parked warp stays in the heap set while its
     * fold is pending.
     */
    void leaveWorkSets(WarpId w);
    /** Un-park @p w (no-op when awake). */
    void wakeWarp(WarpId w);
    /** Advance the runnable-warp integral to time @p t. */
    void accrueRunnable(Cycle t);

    // --- semantics helpers ---
    void advanceCtx(WarpId w, u32 ctx_id, Pc next);
    void resolveBranch(const Event &ev);
    /**
     * @p w's divergent branch just re-posted on a full heap: can
     * @p w never make progress again? True when every hot slot the
     * machine schedules holds a context whose divergent branch
     * re-posted on the full heap or one behind a closed SYNC gate,
     * and the heap cannot change on its own (SplitHeap::settled):
     * no sorter fold is pending and nothing can be merged or
     * demoted, so no context can ever be freed.
     */
    bool heapLivelocked(WarpId w);
    void resolveExit(const Event &ev);
    void arriveBarrier(WarpId w, u32 ctx_id, LaneMask mask);
    void checkBarrierRelease(int block_slot);
    void retireWarpIfDone(WarpId w);
    void accumulateWarpStats(WarpSlot &ws);
    void issueMemory(WarpId w, const IBufEntry &e, const CtxView &cv,
                     Cycle when, unsigned *occupancy,
                     LaneMask *issued_mask);

    // --- block management ---
    void launchBlocks();
    void initWarp(WarpId w, int block_slot, unsigned first_tid,
                  unsigned thread_count);

    // ------------------------------------------------------------
    // state
    // ------------------------------------------------------------
    SMConfig cfg_;
    mem::MemoryImage &memory_;
    mem::MemorySystem memsys_;
    /** issueMemory()'s scratch: one access's lane addresses. */
    mem::LaneAccesses lane_addrs_;
    /** issueMemory()'s scratch: its transactions (replay-all). */
    mem::Transactions txns_;

    const isa::Program &prog_;
    std::vector<DecodedInst> decoded_; //!< decodeProgram(prog_)
    unsigned block_threads_;
    CtaDispatch &ctas_;
    /**
     * ctas_ had no CTA while this SM had room; done() and the chip
     * poll read this, not the shared cursor.
     */
    bool ctas_dry_ = false;

    std::vector<WarpSlot> warps_;
    std::vector<BlockSlot> blocks_;
    unsigned free_warps_ = 0; //!< inactive warp slots

    IBuffer ibuf_;
    Scoreboard sb_;
    std::vector<ExecGroup> groups_;

    std::priority_queue<TimedEvent, std::vector<TimedEvent>, LaterEvent>
        events_;
    u64 event_seq_ = 0; //!< events posted so far
    frontend::FrontEnd frontend_;

    Cycle now_ = 0;
    u64 skipped_cycles_ = 0;
    u64 fetch_seq_ = 1;

    // --- per-warp sleep/wake state ---
    unsigned runnable_count_ = 0; //!< active warps not parked
    u64 runnable_integral_ = 0;   //!< sum of runnable_count_ over time
    Cycle runnable_mark_ = 0;     //!< integral accrued up to here

    // --- per-stage work sets (see ARCHITECTURE.md); each stage
    // walks its own set alone. A set holds only active warps that
    // are not parked, but for a parked warp's pending fold in
    // heap_work_ ---
    /** Heap dirty, or holding a pending CCT sorter fold. */
    WarpSet heap_work_;
    /** Sleep-eligibility inputs moved since last found ineligible. */
    WarpSet sleep_check_;
    /** Context slot may want a fetch, per slot (FrontEnd walks). */
    WarpSet fetch_work_[2];

    // --- the issue table (see ARCHITECTURE.md) ---
    frontend::IssueTable table_;
    /**
     * Warps whose views and rows may be out of date: touchWarp()
     * inserts, refreshRows() and issueTable() re-derive and erase.
     */
    WarpSet stale_;

    core::SimStats stats_;
    TraceHook trace_;
    std::string failure_; //!< see failure()
};

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_SM_HH
