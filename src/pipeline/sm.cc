#include "pipeline/sm.hh"

#include <algorithm>
#include <atomic>

#include "common/bits.hh"
#include "common/log.hh"
#include "exec/functional.hh"
#include "mem/coalescer.hh"
#include "pipeline/lane_shuffle.hh"

namespace siwi::pipeline {

using frontend::PrimaryIssueInfo;
using isa::Instruction;
using isa::Opcode;
using isa::UnitClass;

namespace {

/** Process-wide sleep-oracle switch (test hook, see sm.hh). */
std::atomic<bool> sleep_audit{false};

} // namespace

void
SM::setSleepAudit(bool on)
{
    sleep_audit.store(on, std::memory_order_relaxed);
}

SM::WarpSlot::WarpSlot(const SMConfig &cfg, unsigned regs)
    : state(cfg.warp_width, regs)
{
    if (cfg.reconv == ReconvMode::Stack)
        stack.emplace(LaneMask{});
    else
        heap.emplace(cfg.heap, LaneMask{});
}

SM::SM(const SMConfig &cfg, mem::MemoryImage &memory,
       mem::MemoryBackend &backend, unsigned port,
       const isa::Program &prog, unsigned block_threads,
       CtaDispatch &ctas)
    : cfg_(cfg),
      memory_(memory),
      memsys_(cfg.mem, backend, port),
      prog_(prog),
      block_threads_(block_threads),
      ctas_(ctas),
      blocks_(cfg.max_blocks_resident),
      free_warps_(cfg.num_warps),
      ibuf_(cfg.num_warps, 2),
      sb_(cfg.num_warps, cfg.scoreboard_entries),
      frontend_(*this, cfg_),
      heap_work_(cfg.num_warps),
      sleep_check_(cfg.num_warps),
      fetch_work_{WarpSet(cfg.num_warps), WarpSet(cfg.num_warps)},
      table_(cfg.num_warps),
      stale_(cfg.num_warps)
{
    cfg_.validate();
    siwi_assert(!prog.empty(), "launching empty program");
    siwi_assert(ctas.grid_blocks >= 1 && block_threads >= 1,
                "empty grid");
    siwi_assert(block_threads <= cfg_.maxThreads(),
                "block larger than the SM");
    siwi_assert(prog.regsUsed() <= num_arch_regs,
                "program uses too many registers");

    decoded_ = decodeProgram(prog_);
    // Each warp's register file holds only the registers the
    // program names.
    warps_.reserve(cfg_.num_warps);
    for (unsigned w = 0; w < cfg_.num_warps; ++w)
        warps_.emplace_back(cfg_, prog.regsUsed());
    for (unsigned g = 0; g < cfg_.mad_groups; ++g) {
        groups_.emplace_back("MAD" + std::to_string(g),
                             UnitClass::MAD, cfg_.mad_width);
    }
    groups_.emplace_back("SFU", UnitClass::SFU, cfg_.sfu_width);
    groups_.emplace_back("LSU", UnitClass::LSU, cfg_.lsu_width);
    launchBlocks();
}

bool
SM::done() const
{
    if (!ctas_dry_)
        return false;
    for (const BlockSlot &b : blocks_) {
        if (b.active)
            return false;
    }
    return true;
}

bool
SM::step()
{
    bool progress = false;

    // A chip SM polls the dispatcher every cycle: slots may be free
    // while other SMs still drain the grid. Taking a CTA — or
    // finding that the grid just ran dry, which flips done() — is
    // progress.
    if (ctas_.one_per_cycle && !ctas_dry_) {
        u64 blocks_before = stats_.blocks_launched;
        launchBlocks();
        progress |= stats_.blocks_launched != blocks_before ||
                    ctas_dry_;
    }

    // Fill retirement is batch-equivalent under time jumps (no
    // query can observe a fill before the next load, which only
    // happens on an issue), so it does not count as progress.
    memsys_.tick(now_);

    progress |= processEvents();
    progress |= heapMaintenance();

    if (sleep_audit.load(std::memory_order_relaxed)) {
        std::string why;
        if (!auditSleepingWarps(&why))
            panic("sleep audit (pre-issue): ", why, "\n",
                  debugState());
    }

    // The front-end reports issues and scheduler-state mutations
    // itself; SYNC-suspension attempts are statistics bumped per
    // scan of a gated candidate, so a cycle that moved the counter
    // must not be skipped over or the counts would diverge from
    // per-cycle stepping.
    u64 sync_before = stats_.sync_suspensions;
    progress |= frontend_.issueCycle();
    progress |= stats_.sync_suspensions != sync_before;

    u64 fetches_before = stats_.fetches;
    frontend_.fetchCycle();
    progress |= stats_.fetches != fetches_before;

    if (sleep_audit.load(std::memory_order_relaxed)) {
        std::string why;
        if (!auditSleepingWarps(&why))
            panic("sleep audit (post-fetch): ", why, "\n",
                  debugState());
    }

    // Park every warp that provably cannot act next cycle. Takes
    // effect at now_ + 1: the warp was fully schedulable this
    // cycle, so parking is not an observable state change.
    sleepEvaluate();

    ++now_;
    return progress;
}

Cycle
SM::nextWake() const
{
    Cycle wake = no_wake;
    if (!events_.empty())
        wake = std::min(wake, events_.top().when);
    for (const ExecGroup &g : groups_) {
        // canAccept(c) is c >= busyUntil(), so a group that was
        // busy during the just-stepped cycle (busyUntil == now_)
        // frees exactly at the next cycle: >= here, not >.
        if (g.busyUntil() >= now_)
            wake = std::min(wake, g.busyUntil());
    }
    wake = std::min(wake, memsys_.nextWake(now_));
    // Every warp with a sorter fold pending is in the heap set,
    // parked or not.
    heap_work_.forEach([&](WarpId w) {
        wake = std::min(wake, warps_[w].heap->nextWake());
    });
    return wake;
}

void
SM::skipTo(Cycle target)
{
    siwi_assert(target >= now_, "skipTo into the past");
    skipped_cycles_ += target - now_;
    now_ = target;
}

// ----------------------------------------------------------------
// per-warp sleep/wake
// ----------------------------------------------------------------

void
SM::accrueRunnable(Cycle t)
{
    // Integral of the awake-warp count over time. Transition
    // points are identical whether intervening quiet cycles were
    // stepped or jumped, so the serialized counters derived from
    // it stay bit-identical across skip modes.
    runnable_integral_ += u64(runnable_count_) * (t - runnable_mark_);
    runnable_mark_ = t;
}

void
SM::wakeWarp(WarpId w)
{
    WarpSlot &ws = warps_[w];
    if (!ws.asleep)
        return;
    ws.asleep = false;
    stats_.warp_sleep_cycles += now_ - ws.sleep_since;
    accrueRunnable(now_);
    ++runnable_count_;
    sleep_check_.insert(w);
}

bool
SM::liveAllowsSleep(WarpId w) const
{
    const WarpSlot &ws = warps_[w];
    if (!ws.active)
        return false;

    // A cascade-parked entry is re-probed (claimed toggled off and
    // back on) by the front-end every cycle: never park its warp.
    for (unsigned s = 0; s < ibuf_.slotsPerWarp(); ++s) {
        const IBufEntry &e = ibuf_.entry(w, s);
        if (e.valid && e.claimed)
            return false;
    }

    // Pending heap maintenance (an unsettled restructure pass)
    // can move hot slots next cycle; only a quiescent heap is left
    // alone until its next sorter fold.
    return !ws.heap || ws.heap->quiescent();
}

bool
SM::slotsAllowSleep(WarpId w, const SlotRow (&v)[2],
                    const CtxViews &views) const
{
    for (unsigned slot = 0; slot < 2; ++slot) {
        if (v[slot].entry) {
            // Issuable keeps the warp awake (execution-group
            // availability is deliberately ignored: groups are
            // shared, timed resources, so a group-stalled warp
            // stays awake), and so does a SYNC gate, which bumps
            // sync_suspensions every cycle the warp is scanned.
            if (v[slot].state != SlotState::Blocked)
                return false;
            continue; // unblocks via a Writeback event
        }
        // No fresh entry: the fetch stage could act on this warp
        // unless the context is blocked (it unblocks only via
        // events) or the buffer is full of live entries (a victim
        // can only appear through this warp's own issues or
        // events).
        bool claimed;
        if (fetchTarget(w, views, slot, &claimed))
            return false;
    }
    return true;
}

void
SM::leaveWorkSets(WarpId w)
{
    sleep_check_.erase(w);
    for (unsigned s = 0; s < 2; ++s)
        fetch_work_[s].erase(w);
    // A parked warp keeps a pending sorter fold: heapMaintenance
    // wakes it when the fold falls due.
    if (!warps_[w].asleep || !foldPending(w))
        heap_work_.erase(w);
}

bool
SM::sleepEligible(WarpId w) const
{
    // Live inputs first: the per-slot result is defined only while
    // no entry is claimed.
    if (!liveAllowsSleep(w))
        return false;
    const CtxViews views = deriveViews(w);
    const SlotRow v[2] = {deriveSlot(w, views[0]),
                          deriveSlot(w, views[1])};
    return slotsAllowSleep(w, v, views);
}

void
SM::sleepEvaluate()
{
    // Only a warp whose eligibility inputs moved since it was last
    // found ineligible can have become eligible.
    // The rows it reads are the issue table's, re-derived here only
    // if the warp changed since the issue stage read them.
    sleep_check_.forEach([&](WarpId w) {
        sleep_check_.erase(w);
        if (!liveAllowsSleep(w))
            return;
        refreshRows(w);
        const SlotRow v[2] = {table_.row(w, 0), table_.row(w, 1)};
        if (!slotsAllowSleep(w, v, table_.views[w]))
            return;
        WarpSlot &ws = warps_[w];
        ws.asleep = true;
        ws.sleep_since = now_ + 1;
        accrueRunnable(now_ + 1); // parked from the next cycle on
        --runnable_count_;
        // The rows have just proved that no slot has a fetch target
        // or an unblocked entry: the fetch sets' exit rule, and the
        // warp is in neither ready set of the issue table.
        leaveWorkSets(w);
    });
}

bool
SM::auditSleepingWarps(std::string *why) const
{
    // The first violation at warp w, or null. Everything is
    // re-derived: going through the issue table would check it
    // against itself.
    auto violation = [&](WarpId w) -> const char * {
        const WarpSlot &ws = warps_[w];
        const CtxViews fresh = deriveViews(w);
        // Every issue-table view and row outside the stale set must
        // equal a fresh derivation, the row in both ready sets and
        // in its seq and unit copies; a mismatch means some change
        // to the warp missed touchWarp(), or a fetch wrote the wrong
        // row.
        for (unsigned slot = 0; slot < 2; ++slot) {
            if (stale_.contains(w))
                break; // the next read re-derives
            if (table_.views[w][slot] != fresh[slot]) {
                return slot ? "slot-1 context view is stale"
                            : "slot-0 context view is stale";
            }
            SlotRow d = deriveSlot(w, fresh[slot]);
            bool issuable = table_.issuable[slot].contains(w);
            bool gated = table_.sync_gated[slot].contains(w);
            bool match =
                table_.entry[slot][w] == d.entry &&
                issuable == (d.entry && d.state == SlotState::Issuable) &&
                gated == (d.entry && d.state == SlotState::SyncGated) &&
                (!d.entry || (table_.seq[slot][w] == d.entry->seq &&
                              table_.unit[slot][w] == d.entry->unit));
            if (!match) {
                return slot ? "slot-1 issue-table row is stale"
                            : "slot-0 issue-table row is stale";
            }
        }
        if (ws.active && !heap_work_.contains(w) && ws.heap &&
            (!ws.heap->quiescent() || foldPending(w)))
            return "outside the heap set with upkeep or a fold due";

        // An inactive or parked warp is in no fetch or sleep-check
        // set (its rows, checked above, are in no ready set), and in
        // the heap set only while parked with a sorter fold pending
        // that is not yet due.
        if (!ws.active || ws.asleep) {
            bool in_set = sleep_check_.contains(w);
            for (unsigned s = 0; s < 2; ++s)
                in_set |= fetch_work_[s].contains(w);
            if (in_set)
                return "inactive or parked, but in a fetch or "
                       "sleep-check set";
            if (heap_work_.contains(w)) {
                if (!ws.active || !foldPending(w))
                    return "in the heap set, neither awake nor parked "
                           "with a fold pending";
                if (ws.heap->nextWake() <= now_)
                    return "parked past its sorter fold";
            }
            if (ws.active && !sleepEligible(w))
                return "parked warp is schedulable (could issue, fetch, "
                       "probe a SYNC gate, or restructure its heap)";
            return nullptr;
        }

        // An awake warp outside a work set must be one its stage
        // has nothing to do for: a set may hold extra warps, never
        // miss one.
        if (!sleep_check_.contains(w) && sleepEligible(w))
            return "outside the sleep-check set but sleep-eligible";
        for (unsigned slot = 0; slot < 2; ++slot) {
            bool claimed;
            if (!fetch_work_[slot].contains(w) &&
                !deriveSlot(w, fresh[slot]).entry &&
                fetchTarget(w, fresh, slot, &claimed)) {
                return slot ? "outside the slot-1 fetch set, fetchable"
                            : "outside the slot-0 fetch set, fetchable";
            }
        }
        return nullptr;
    };
    for (WarpId w = 0; w < warps_.size(); ++w) {
        if (const char *what = violation(w)) {
            if (why) {
                *why = "warp " + std::to_string(w) + " at cycle " +
                       std::to_string(now_) + ": " + what;
            }
            return false;
        }
    }
    return true;
}

// ----------------------------------------------------------------
// block / warp management
// ----------------------------------------------------------------

void
SM::launchBlocks()
{
    unsigned warps_per_block =
        unsigned(divCeil(block_threads_, cfg_.warp_width));

    while (!ctas_dry_) {
        // A chip SM polls every cycle, also while a CTA drains and
        // a block slot is free but too few warp slots are.
        if (free_warps_ < warps_per_block)
            return;

        // Find a free block slot.
        int bslot = -1;
        for (unsigned i = 0; i < blocks_.size(); ++i) {
            if (!blocks_[i].active) {
                bslot = int(i);
                break;
            }
        }
        if (bslot < 0)
            return;

        const int cta = ctas_.take();
        if (cta < 0) {
            ctas_dry_ = true;
            return;
        }

        BlockSlot &blk = blocks_[unsigned(bslot)];
        blk.active = true;
        blk.cta = cta;
        blk.live_threads = block_threads_;
        blk.barrier_arrived = 0;
        // The lowest free warp slots, all taken before any launches.
        blk.warps.clear();
        for (WarpId w = 0; blk.warps.size() < warps_per_block; ++w) {
            if (!warps_[w].active)
                blk.warps.push_back(w);
        }

        for (unsigned i = 0; i < warps_per_block; ++i) {
            unsigned first = i * cfg_.warp_width;
            unsigned count = std::min(cfg_.warp_width,
                                      block_threads_ - first);
            initWarp(blk.warps[i], bslot, first, count);
        }
        stats_.blocks_launched += 1;
        stats_.threads_launched += block_threads_;

        // Chip mode admits one CTA per cycle (GigaThread-style
        // dispatch), which is what makes the initial distribution
        // round-robin across SMs.
        if (ctas_.one_per_cycle)
            return;
    }
}

void
SM::initWarp(WarpId w, int block_slot, unsigned first_tid,
             unsigned thread_count)
{
    WarpSlot &ws = warps_[w];
    ws.active = true;
    --free_warps_;
    ++ws.launch;
    ws.block = block_slot;
    ws.stack_branch_pending = false;
    ws.stack_barrier_blocked = false;
    ws.last_divergence = ~Cycle(0);
    for (u32 &id : ws.full_heap_posts)
        id = divergence::no_ctx;
    accrueRunnable(now_);
    ++runnable_count_;
    ws.state.clear();

    const BlockSlot &blk = blocks_[unsigned(block_slot)];
    LaneMask mask;
    for (unsigned t = 0; t < thread_count; ++t) {
        unsigned lane = laneOf(cfg_.lane_shuffle, t, w, cfg_.warp_width,
                               cfg_.num_warps);
        exec::ThreadInfo &ti = ws.state.info(lane);
        ti.valid = true;
        ti.tid = i32(first_tid + t);
        ti.ntid = i32(block_threads_);
        ti.ctaid = blk.cta;
        ti.nctaid = i32(ctas_.grid_blocks);
        ti.gtid = i32(u32(blk.cta) * block_threads_ + first_tid + t);
        ti.lane = i32(lane);
        ti.wid = i32(w);
        mask.set(lane);
    }

    // The slot's tracker, built with the SM, starts afresh.
    if (ws.stack)
        ws.stack->reset(mask, Pc(0));
    else
        ws.heap->reset(mask, Pc(0));
    ibuf_.flushWarp(w);
    sb_.flushWarp(w);
    // A new tenant: every stage must look at it.
    touchWarp(w);
    heapTouched(w);
}

void
SM::accumulateWarpStats(WarpSlot &ws)
{
    if (ws.stack) {
        stats_.max_stack_depth =
            std::max(stats_.max_stack_depth, ws.stack->maxDepth());
        stats_.merges += ws.stack->reconvergences();
    }
    if (ws.heap) {
        const auto &hs = ws.heap->stats();
        stats_.warp_splits += hs.splits;
        stats_.merges += hs.merges;
        stats_.promotions += hs.promotions;
        stats_.max_live_contexts = std::max(
            stats_.max_live_contexts, hs.max_live_contexts);
        stats_.cct_degraded_inserts +=
            ws.heap->cctStats().degraded_inserts;
    }
}

void
SM::retireWarpIfDone(WarpId w)
{
    WarpSlot &ws = warps_[w];
    if (!ws.active)
        return;
    bool finished = ws.stack ? ws.stack->done() : ws.heap->done();
    if (!finished)
        return;

    // The exit event that finished the warp woke it, so it retires
    // awake: it leaves the runnable count and every work set.
    siwi_assert(!ws.asleep, "retiring a parked warp");
    accumulateWarpStats(ws);
    ws.active = false;
    ++free_warps_;
    accrueRunnable(now_);
    --runnable_count_;
    leaveWorkSets(w);
    ibuf_.flushWarp(w);
    // An inactive warp's views are invalid and its rows empty.
    stale_.erase(w);
    table_.views[w] = CtxViews{};
    for (unsigned s = 0; s < 2; ++s)
        table_.set(w, s, SlotRow{});

    // A slot in the launch-time list may have retired and been
    // reused by another CTA: only slots still tagged with this
    // block count.
    BlockSlot &blk = blocks_[unsigned(ws.block)];
    bool block_done = true;
    for (WarpId bw : blk.warps) {
        if (warps_[bw].active && warps_[bw].block == ws.block)
            block_done = false;
    }
    if (block_done) {
        blk.active = false;
        blk.warps.clear();
        launchBlocks();
    }
}

// ----------------------------------------------------------------
// context views and the issue table
// ----------------------------------------------------------------

SM::CtxView
SM::ctxView(WarpId w, unsigned slot) const
{
    CtxView cv;
    const WarpSlot &ws = warps_[w];
    if (!ws.active)
        return cv;

    if (ws.stack) {
        if (slot != 0 || ws.stack->done() ||
            ws.stack_branch_pending || ws.stack_barrier_blocked) {
            return cv;
        }
        cv.valid = true;
        cv.id = 0;
        cv.pc = ws.stack->pc();
        cv.mask = ws.stack->mask();
        cv.version = ws.stack->version();
        return cv;
    }

    // Heap: slot 1 is only schedulable with the SBI second front-end.
    if (slot >= divergence::SplitHeap::num_hot)
        return cv;
    if (slot == 1 && !cfg_.sbi)
        return cv;
    u32 id = ws.heap->hotId(slot);
    if (id == divergence::no_ctx)
        return cv;
    const divergence::SplitContext &c = ws.heap->ctx(id);
    if (!c.valid || c.branch_pending || c.barrier_blocked)
        return cv;
    cv.valid = true;
    cv.id = id;
    cv.pc = c.pc;
    cv.mask = c.mask;
    cv.version = c.version;
    return cv;
}

SM::SlotRow
SM::deriveSlot(WarpId w, const CtxView &cv) const
{
    SlotRow v;
    if (!cv.valid)
        return v;
    const IBufEntry *e = ibuf_.findCtx(w, cv.id);
    if (!e || e->ctx_version != cv.version)
        return v;
    v.entry = const_cast<IBufEntry *>(e);
    v.state = entryState(w, *e);
    return v;
}

SM::SlotState
SM::entryState(WarpId w, const IBufEntry &e) const
{
    if (syncGated(w, e))
        return SlotState::SyncGated;
    if ((e.writes_dst && !sb_.hasFreeEntry(w)) ||
        sb_.conflicts(w, e.hazard, e.mask))
        return SlotState::Blocked;
    return SlotState::Issuable;
}

const frontend::IssueTable &
SM::issueTable()
{
    // Erase each warp as it is visited: clearing the whole set
    // afterwards costs a full-width store even when one warp was
    // stale.
    stale_.forEach([&](WarpId w) {
        stale_.erase(w);
        deriveRows(w);
    });
    return table_;
}

void
SM::dropClaim(WarpId w, IBufEntry &e)
{
    // Releasing a claim can make the warp sleep-eligible (and give
    // fetch a victim) without any touch.
    e.claimed = false;
    sleep_check_.insert(w);
}

bool
SM::syncGated(WarpId w, const IBufEntry &e) const
{
    if (e.inst.op != Opcode::SYNC || !cfg_.sbi_constraints)
        return false;
    if (cfg_.reconv != ReconvMode::ThreadFrontier)
        return false;
    if (e.inst.div == invalid_pc)
        return false;
    // Selective synchronization barrier (paper 3.3): the warp-split
    // at PCrec is suspended while CPC1 lies in [PCdiv, PCrec).
    Pc cpc1 = warps_[w].heap->cpc1();
    return cpc1 >= e.inst.div && cpc1 < e.pc;
}

frontend::UnitMask
SM::freeUnits() const
{
    frontend::UnitMask free = 0;
    for (const ExecGroup &g : groups_) {
        if (g.canAccept(now_))
            free |= frontend::unitBit(g.unitClass());
    }
    return free;
}

ExecGroup *
SM::freeGroup(UnitClass cls)
{
    for (ExecGroup &g : groups_) {
        if (g.unitClass() == cls && g.canAccept(now_))
            return &g;
    }
    return nullptr;
}

// ----------------------------------------------------------------
// issue
// ----------------------------------------------------------------

void
SM::advanceCtx(WarpId w, u32 ctx_id, Pc next)
{
    WarpSlot &ws = warps_[w];
    if (ws.stack)
        ws.stack->advance(next);
    else
        ws.heap->advance(ctx_id, next, now_);
}

void
SM::issueMemory(WarpId w, const IBufEntry &e, const CtxView &cv,
                Cycle when, unsigned *occupancy, LaneMask *issued_mask)
{
    WarpSlot &ws = warps_[w];
    const Instruction &inst = e.inst;
    const unsigned block_bytes = cfg_.mem.l1.block_bytes;

    exec::memAddresses(inst, ws.state, cv.mask, lane_addrs_);
    siwi_assert(!lane_addrs_.empty(), "memory op with no transactions");

    Cycle base = when + cfg_.delivery_latency;

    // A split serves only the first transaction, so where one may
    // happen a single pass finds it and whether any lane is left
    // over; full coalescing runs only when every lane replays.
    if (cfg_.split_on_memory_divergence && ws.heap &&
        ws.heap->canSplit() && ws.last_divergence != now_) {
        bool more = false;
        const mem::Transaction t =
            mem::firstTransaction(lane_addrs_, block_bytes, &more);
        if (more) {
            // Serve the first transaction; its lanes advance as a
            // new warp-split, the remaining lanes replay the
            // instruction (section 2 replay + section 3.4 memory
            // divergence).
            exec::executeMem(inst, lane_addrs_, t.lanes, ws.state,
                             memory_);
            if (inst.op == Opcode::LD) {
                Cycle data = memsys_.load(base, t.block);
                unsigned idx = sb_.allocate(w, inst.dst, t.lanes);
                Event ev;
                ev.kind = Event::Kind::Writeback;
                ev.warp = w;
                ev.sb_entry = int(idx);
                postEvent(data, ev);
            } else {
                memsys_.store(base, t.block, t.lanes.count() * 4);
            }
            ws.heap->memorySplit(cv.id, t.lanes, e.pc + 1, now_);
            ws.last_divergence = now_;
            stats_.memory_splits += 1;
            *occupancy = 1;
            // Only the first transaction's lanes execute this
            // issue; the rest replay as their own issues later.
            *issued_mask = t.lanes;
            return;
        }
        txns_.clear();
        txns_.push_back(t); // the access's only transaction
    } else {
        mem::coalesce(lane_addrs_, block_bytes, txns_);
    }

    // Replay all transactions back-to-back through the single L1
    // port; the LSU stays occupied one cycle per transaction.
    exec::executeMem(inst, lane_addrs_, cv.mask, ws.state, memory_);
    Cycle last_data = 0;
    for (unsigned i = 0; i < txns_.size(); ++i) {
        Cycle t_when = base + Cycle(i);
        if (inst.op == Opcode::LD) {
            last_data =
                std::max(last_data, memsys_.load(t_when,
                                                 txns_[i].block));
        } else {
            memsys_.store(t_when, txns_[i].block,
                          txns_[i].lanes.count() * 4);
        }
    }
    if (inst.op == Opcode::LD) {
        unsigned idx = sb_.allocate(w, inst.dst, cv.mask);
        Event ev;
        ev.kind = Event::Kind::Writeback;
        ev.warp = w;
        ev.sb_entry = int(idx);
        postEvent(last_data, ev);
    }
    advanceCtx(w, cv.id, e.pc + 1);
    *occupancy = txns_.size();
    *issued_mask = cv.mask;
}

bool
SM::issueCand(WarpId w, unsigned slot, bool secondary, ExecGroup *row,
              PrimaryIssueInfo *issued)
{
    refreshRows(w);
    IBufEntry *ep = table_.entry[slot][w];
    siwi_assert(ep != nullptr, "issuing stale entry");
    IBufEntry &e = *ep;
    WarpSlot &ws = warps_[w];
    const CtxView cv = table_.views[w][slot];

    const Instruction inst = e.inst;
    UnitClass cls = e.unit;

    // Only this cycle's primary issue can have occupied the row.
    siwi_assert(!row || row->busyUntil() > now_, "row share w/o primary");
    ExecGroup *group = row ? row : freeGroup(cls);
    if (!group)
        return false;

    unsigned occupancy = group->wavesFor(cfg_.warp_width);
    Cycle when = now_;
    LaneMask issued_mask = cv.mask;

    switch (inst.op) {
      case Opcode::LD:
      case Opcode::ST:
        siwi_assert(!row, "memory ops never share a row");
        issueMemory(w, e, cv, when, &occupancy, &issued_mask);
        break;

      case Opcode::BRA:
      case Opcode::BNZ:
      case Opcode::BZ: {
        LaneMask taken = exec::evalBranch(inst, ws.state, cv.mask);
        if (ws.stack)
            ws.stack_branch_pending = true;
        else
            ws.heap->ctxMut(cv.id).branch_pending = true;
        Event ev;
        ev.kind = Event::Kind::Branch;
        ev.warp = w;
        ev.ctx_id = cv.id;
        ev.target = inst.target;
        ev.reconv = inst.reconv;
        ev.mask = cv.mask;
        ev.taken = taken;
        ev.pc = e.pc;
        postEvent(when + cfg_.delivery_latency + cfg_.exec_latency,
                  ev);
        break;
      }

      case Opcode::EXIT: {
        if (ws.stack)
            ws.stack_branch_pending = true;
        else
            ws.heap->ctxMut(cv.id).branch_pending = true;
        Event ev;
        ev.kind = Event::Kind::Exit;
        ev.warp = w;
        ev.ctx_id = cv.id;
        ev.mask = cv.mask;
        postEvent(when + cfg_.delivery_latency + cfg_.exec_latency,
                  ev);
        break;
      }

      case Opcode::BAR:
        arriveBarrier(w, cv.id, cv.mask);
        break;

      case Opcode::SYNC:
      case Opcode::NOP:
        advanceCtx(w, cv.id, e.pc + 1);
        break;

      default: {
        // ALU / SFU
        exec::executeAlu(inst, ws.state, cv.mask);
        advanceCtx(w, cv.id, e.pc + 1);
        if (inst.writesDst()) {
            unsigned idx = sb_.allocate(w, inst.dst, cv.mask);
            Event ev;
            ev.kind = Event::Kind::Writeback;
            ev.warp = w;
            ev.sb_entry = int(idx);
            postEvent(when + cfg_.delivery_latency +
                          cfg_.exec_latency + (occupancy - 1),
                      ev);
        }
        break;
      }
    }

    // Unit occupancy and statistics.
    unsigned threads = issued_mask.count();
    if (row) {
        group->shareRow(threads);
        stats_.row_share_issues += 1;
    } else {
        group->occupy(when, occupancy, threads);
    }
    stats_.instructions += 1;
    stats_.thread_instructions += threads;
    if (secondary)
        stats_.secondary_issues += 1;
    else
        stats_.primary_issues += 1;

    if (issued) {
        *issued = {.valid = true, .w = w, .group = group,
                   .mask = issued_mask, .unit = cls};
    }

    if (trace_) {
        IssueEvent tev;
        tev.cycle = when;
        tev.warp = w;
        tev.pc = e.pc;
        tev.mask = issued_mask;
        tev.unit = group->name();
        tev.secondary = secondary;
        tev.occupancy = row ? 0 : occupancy;
        trace_(tev);
    }

    e.valid = false;
    e.claimed = false;
    touchWarp(w);
    heapTouched(w);
    return true;
}

// ----------------------------------------------------------------
// events
// ----------------------------------------------------------------

void
SM::postEvent(Cycle when, Event ev)
{
    ev.launch = warps_[ev.warp].launch;
    events_.push({when, event_seq_++, ev});
}

bool
SM::processEvents()
{
    bool fired = false;
    while (!events_.empty() && events_.top().when <= now_) {
        Event ev = events_.top().ev;
        events_.pop();
        // Posted by an earlier tenant of the slot, or by a warp
        // that has retired since: the warp it belongs to is gone,
        // so it must not touch the slot (nor re-enter it in a work
        // set).
        const WarpSlot &ws = warps_[ev.warp];
        if (ev.launch != ws.launch || !ws.active)
            continue;
        fired = true;
        // Every event can unblock its warp (scoreboard release,
        // branch/exit resolution mutate schedulability), so the
        // warp wakes, and its issue-table rows go stale, before the
        // event applies.
        wakeWarp(ev.warp);
        touchWarp(ev.warp);
        switch (ev.kind) {
          case Event::Kind::Writeback:
            sb_.release(ev.warp, unsigned(ev.sb_entry));
            break;
          case Event::Kind::Branch:
            heapTouched(ev.warp);
            resolveBranch(ev);
            break;
          case Event::Kind::Exit:
            heapTouched(ev.warp);
            resolveExit(ev);
            break;
        }
    }
    return fired;
}

void
SM::resolveBranch(const Event &ev)
{
    WarpSlot &ws = warps_[ev.warp];
    LaneMask taken = ev.taken;
    LaneMask fall = ev.mask & ~taken;
    bool divergent = taken.any() && fall.any();

    if (divergent && ws.heap) {
        // One divergence (branch or memory) per warp per cycle, and
        // the heap must have room for the new warp-split.
        if (ws.last_divergence == now_ || !ws.heap->canSplit()) {
            if (!ws.heap->canSplit()) {
                stats_.heap_full_stalls += 1;
                u32 *cell = nullptr;
                for (u32 &id : ws.full_heap_posts) {
                    if (id == ev.ctx_id || (!cell && id == divergence::no_ctx))
                        cell = &id;
                }
                siwi_assert(cell, "more full-heap posts than hot slots");
                *cell = ev.ctx_id;
                if (failure_.empty() && heapLivelocked(ev.warp)) {
                    failure_ = "heap livelock: warp " +
                               std::to_string(ev.warp) + " at cycle " +
                               std::to_string(now_) +
                               ": every context it can schedule waits "
                               "on a full heap or a SYNC gate, and none "
                               "can be freed (cct_capacity=" +
                               std::to_string(cfg_.heap.cct_capacity) +
                               ")";
                }
            }
            postEvent(now_ + 1, ev);
            return;
        }
    }
    for (u32 &id : ws.full_heap_posts) {
        if (id == ev.ctx_id)
            id = divergence::no_ctx;
    }

    if (ws.stack) {
        ws.stack_branch_pending = false;
        bool d = ws.stack->branch(ev.target, ev.pc + 1, ev.reconv,
                                  taken);
        if (d)
            stats_.branch_divergences += 1;
    } else {
        if (taken.none()) {
            ws.heap->branchResolve(ev.ctx_id, ev.pc + 1, fall, 0,
                                   LaneMask{}, now_);
        } else if (fall.none()) {
            ws.heap->branchResolve(ev.ctx_id, ev.target, taken, 0,
                                   LaneMask{}, now_);
        } else {
            ws.heap->branchResolve(ev.ctx_id, ev.target, taken,
                                   ev.pc + 1, fall, now_);
            stats_.branch_divergences += 1;
            ws.last_divergence = now_;
        }
    }
}

bool
SM::heapLivelocked(WarpId w)
{
    const WarpSlot &ws = warps_[w];
    const divergence::SplitHeap &heap = *ws.heap;
    if (!heap.settled())
        return false;
    refreshRows(w);
    // Hot slot 1 is schedulable only with SBI's second front-end.
    for (unsigned slot = 0; slot < (cfg_.sbi ? 2u : 1u); ++slot) {
        u32 id = heap.hotId(slot);
        if (id == divergence::no_ctx)
            return false;
        bool reposted = heap.ctx(id).branch_pending &&
                        (ws.full_heap_posts[0] == id ||
                         ws.full_heap_posts[1] == id);
        if (!reposted && !table_.sync_gated[slot].contains(w))
            return false;
    }
    return true;
}

void
SM::resolveExit(const Event &ev)
{
    WarpSlot &ws = warps_[ev.warp];
    if (ws.stack) {
        ws.stack_branch_pending = false;
        ws.stack->exitThreads(ev.mask);
    } else {
        ws.heap->exitResolve(ev.ctx_id, now_);
    }

    BlockSlot &blk = blocks_[unsigned(ws.block)];
    siwi_assert(blk.live_threads >= ev.mask.count(),
                "exit underflow");
    blk.live_threads -= ev.mask.count();
    checkBarrierRelease(ws.block);
    retireWarpIfDone(ev.warp);
}

void
SM::arriveBarrier(WarpId w, u32 ctx_id, LaneMask mask)
{
    WarpSlot &ws = warps_[w];
    if (ws.stack)
        ws.stack_barrier_blocked = true;
    else
        ws.heap->ctxMut(ctx_id).barrier_blocked = true;

    BlockSlot &blk = blocks_[unsigned(ws.block)];
    blk.barrier_arrived += mask.count();
    checkBarrierRelease(ws.block);
}

void
SM::checkBarrierRelease(int block_slot)
{
    BlockSlot &blk = blocks_[unsigned(block_slot)];
    if (blk.barrier_arrived == 0 ||
        blk.barrier_arrived < blk.live_threads) {
        return;
    }
    for (WarpId w : blk.warps) {
        WarpSlot &ws = warps_[w];
        if (!ws.active || ws.block != block_slot)
            continue; // retired, or reused by another CTA
        if (ws.stack) {
            if (ws.stack_barrier_blocked) {
                ws.stack_barrier_blocked = false;
                ws.stack->advance(ws.stack->pc() + 1);
            }
        } else {
            ws.heap->barrierRelease(now_);
        }
        // Released warps become schedulable mid-cycle; any stage
        // that runs after this (secondary pick, fetch) must see
        // them: the wake and the touch enter them in every work
        // set, which each scan reads where it runs.
        wakeWarp(w);
        touchWarp(w);
        heapTouched(w);
    }
    blk.barrier_arrived = 0;
    stats_.barrier_releases += 1;
}

// ----------------------------------------------------------------
// heap upkeep + fetch
// ----------------------------------------------------------------

bool
SM::heapMaintenance()
{
    // Only heap-set warps have upkeep to do: a tick() of any other
    // heap is pure and returns false (quiescent, no fold pending).
    // A parked warp's heap is quiescent and every other mutation
    // wakes the warp, so its tick can only change something once
    // its sorter fold is due: wake it then, and skip it before.
    bool changed = false;
    heap_work_.forEach([&](WarpId w) {
        divergence::SplitHeap &heap = *warps_[w].heap;
        if (warps_[w].asleep) {
            if (heap.nextWake() > now_)
                return;
            wakeWarp(w);
        }
        bool settling = !heap.quiescent();
        if (heap.tick(now_)) {
            changed = true;
            touchWarp(w);
            return;
        }
        // A false tick() leaves the heap quiescent. Settling can
        // make the warp sleep-eligible without a touch.
        if (settling)
            sleep_check_.insert(w);
        if (heap.nextWake() == no_wake)
            heap_work_.erase(w);
    });
    return changed;
}

bool
SM::ibufEntryLive(const IBufEntry &e, const CtxViews &views) const
{
    // An entry is live while it matches a current context (by
    // id and version) or is parked in the cascade register.
    if (!e.valid)
        return false;
    if (e.claimed)
        return true;
    for (const CtxView &cv : views) {
        if (cv.valid && cv.id == e.ctx_id)
            return cv.version == e.ctx_version;
    }
    return false;
}

IBufEntry *
SM::fetchTarget(WarpId w, const CtxViews &views, unsigned slot,
                bool *claimed) const
{
    const CtxView &cv = views[slot];
    *claimed = false;
    if (!cv.valid)
        return nullptr;
    // Reuse this context's stale entry, unless it is parked in the
    // cascade register...
    if (const IBufEntry *have = ibuf_.findCtx(w, cv.id)) {
        *claimed = have->claimed;
        return have->claimed ? nullptr : const_cast<IBufEntry *>(have);
    }
    // ...else overwrite any dead entry.
    for (unsigned s = 0; s < ibuf_.slotsPerWarp(); ++s) {
        const IBufEntry &e = ibuf_.entry(w, s);
        if (!ibufEntryLive(e, views))
            return const_cast<IBufEntry *>(&e);
        *claimed |= e.claimed;
    }
    return nullptr; // buffer full of live work
}

bool
SM::tryFetch(WarpId w, unsigned slot)
{
    refreshRows(w);
    if (table_.entry[slot][w]) {
        fetch_work_[slot].erase(w); // a fresh entry is buffered
        return false;
    }
    const CtxViews &views = table_.views[w];
    bool claimed;
    IBufEntry *target = fetchTarget(w, views, slot, &claimed);
    if (!target) {
        if (!claimed)
            fetch_work_[slot].erase(w);
        return false;
    }
    const CtxView &cv = views[slot];
    siwi_assert(cv.pc < prog_.size(), "fetch past program");
    const DecodedInst &d = decoded_[cv.pc];
    target->valid = true;
    target->claimed = false;
    target->ctx_id = cv.id;
    target->ctx_version = cv.version;
    target->inst = prog_.at(cv.pc);
    target->pc = cv.pc;
    target->mask = cv.mask;
    target->seq = fetch_seq_++;
    target->hazard = d.hazard;
    target->writes_dst = d.writes_dst;
    target->unit = d.unit;
    // The fetch changed row (w, slot) alone, so it writes that row
    // instead of touching w: the rows were current (refreshRows
    // above), the target was this context's stale entry or a dead
    // one (never the other slot's fresh entry, which is live), and
    // no context, gate or scoreboard entry moved. A new live entry
    // can only take fetch targets away, so the fetch sets need no
    // re-entry; only sleep evaluation must look at w again.
    table_.set(w, slot, {target, entryState(w, *target)});
    sleep_check_.insert(w);
    stats_.fetches += 1;
    return true;
}

std::string
SM::debugState() const
{
    std::ostringstream os;
    os << "cycle " << now_ << ", events " << events_.size() << "\n";
    for (unsigned bi = 0; bi < blocks_.size(); ++bi) {
        const BlockSlot &blk = blocks_[bi];
        if (!blk.active)
            continue;
        os << "block " << bi << " cta=" << blk.cta << " live="
           << blk.live_threads << " arrived="
           << blk.barrier_arrived << "\n";
    }
    for (WarpId w = 0; w < warps_.size(); ++w) {
        const WarpSlot &ws = warps_[w];
        if (!ws.active)
            continue;
        os << " warp " << w << ":";
        if (ws.asleep)
            os << " asleep";
        if (ws.stack) {
            os << " stack depth=" << ws.stack->depth();
            if (!ws.stack->done()) {
                os << " pc=" << ws.stack->pc() << " mask="
                   << ws.stack->mask().count();
            }
            os << (ws.stack_branch_pending ? " PEND" : "")
               << (ws.stack_barrier_blocked ? " BAR" : "");
        } else {
            for (unsigned s = 0; s < divergence::SplitHeap::num_hot;
                 ++s) {
                u32 id = ws.heap->hotId(s);
                if (id == divergence::no_ctx) {
                    os << " hot" << s << "=-";
                    continue;
                }
                const auto &c = ws.heap->ctx(id);
                os << " hot" << s << "={pc=" << c.pc << " n="
                   << c.mask.count()
                   << (c.branch_pending ? " PEND" : "")
                   << (c.barrier_blocked ? " BAR" : "") << "}";
            }
            os << " live=" << ws.heap->liveContexts();
        }
        os << "\n";
    }
    return os.str();
}

core::SimStats
SM::finalizeStats()
{
    stats_.cycles = now_;
    // Close out sleep/runnable accounting at the final cycle (a
    // timed-out run can end with warps still parked). Both folds
    // are idempotent: the marks advance to now_.
    for (WarpSlot &ws : warps_) {
        if (!ws.active)
            continue;
        accumulateWarpStats(ws);
        if (ws.asleep) {
            stats_.warp_sleep_cycles += now_ - ws.sleep_since;
            ws.sleep_since = now_;
        }
    }
    accrueRunnable(now_);
    stats_.runnable_warp_cycles = runnable_integral_;
    stats_.avg_runnable_warps_x10 =
        now_ ? (10 * runnable_integral_) / now_ : 0;
    stats_.l1_hits = memsys_.cacheStats().hits;
    stats_.l1_misses = memsys_.cacheStats().misses;
    stats_.l1_evictions = memsys_.cacheStats().evictions;
    stats_.load_transactions = memsys_.stats().load_transactions;
    stats_.store_transactions = memsys_.stats().store_transactions;
    stats_.write_forwards = memsys_.stats().write_forwards;
    stats_.mshr_merges = memsys_.stats().mshr_merges;
    stats_.mshr_stalls = memsys_.stats().mshr_stalls;

    stats_.units.clear();
    for (const ExecGroup &g : groups_) {
        core::UnitStats us;
        us.name = g.name();
        us.issues = g.stats().issues;
        us.busy_cycles = g.stats().busy_cycles;
        us.thread_instructions = g.stats().thread_instructions;
        stats_.units.push_back(us);
    }
    return stats_;
}

} // namespace siwi::pipeline
