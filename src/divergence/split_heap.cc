#include "divergence/split_heap.hh"

#include <algorithm>
#include <numeric>

#include "common/log.hh"

namespace siwi::divergence {

SplitHeap::SplitHeap(const SplitHeapConfig &cfg, LaneMask initial,
                     Pc entry_pc)
    : cfg_(cfg),
      pool_(num_hot + cfg.cct_capacity),
      cct_(cfg.cct_capacity, cfg.cct_steps_per_cycle)
{
    reset(initial, entry_pc);
}

void
SplitHeap::reset(LaneMask initial, Pc entry_pc)
{
    std::fill(pool_.begin(), pool_.end(), SplitContext{});
    // Every id free, the lowest at the back (allocated first).
    free_.resize(pool_.size());
    std::iota(free_.rbegin(), free_.rend(), 0u);
    hot_.fill(no_ctx);
    cct_.reset();
    stats_ = SplitHeapStats{};
    dirty_ = true;
    if (initial.any())
        hot_[0] = alloc(entry_pc, initial);
}

u32
SplitHeap::alloc(Pc pc, LaneMask mask)
{
    siwi_assert(!free_.empty(), "context pool exhausted");
    u32 id = free_.back();
    free_.pop_back();
    SplitContext &c = pool_[id];
    c.pc = pc;
    c.mask = mask;
    c.valid = true;
    c.branch_pending = false;
    c.barrier_blocked = false;
    ++c.version;
    stats_.max_live_contexts =
        std::max(stats_.max_live_contexts, liveContexts());
    return id;
}

void
SplitHeap::freeCtx(u32 id)
{
    siwi_assert(pool_[id].valid, "freeing invalid context");
    pool_[id].valid = false;
    ++pool_[id].version;
    free_.push_back(id);
}

u32
SplitHeap::hotId(unsigned slot) const
{
    siwi_assert(slot < num_hot, "bad hot slot");
    return hot_[slot];
}

const SplitContext &
SplitHeap::ctx(u32 id) const
{
    siwi_assert(id < pool_.size(), "bad context id");
    return pool_[id];
}

SplitContext &
SplitHeap::ctxMut(u32 id)
{
    siwi_assert(id < pool_.size(), "bad context id");
    // The caller may flip scheduling-relevant flags (barrier,
    // branch-pending) through this reference.
    dirty_ = true;
    return pool_[id];
}

bool
SplitHeap::done() const
{
    return hot_[0] == no_ctx && hot_[1] == no_ctx && cct_.empty();
}

LaneMask
SplitHeap::liveMask() const
{
    LaneMask m;
    for (const SplitContext &c : pool_) {
        if (c.valid)
            m |= c.mask;
    }
    return m;
}

Pc
SplitHeap::cpc1() const
{
    Pc best = invalid_pc;
    for (const SplitContext &c : pool_) {
        if (c.valid && c.pc < best)
            best = c.pc;
    }
    return best;
}

unsigned
SplitHeap::liveContexts() const
{
    unsigned n = 0;
    for (const SplitContext &c : pool_) {
        if (c.valid)
            ++n;
    }
    return n;
}

bool
SplitHeap::canSplit() const
{
    return !free_.empty() && !cct_.full();
}

SorterEntry
SplitHeap::toEntry(u32 id) const
{
    SorterEntry e;
    if (id == no_ctx)
        return e;
    const SplitContext &c = pool_[id];
    e.pc = c.pc;
    e.mask = c.mask;
    e.valid = c.valid;
    e.pinned = c.branch_pending;
    e.barrier = c.barrier_blocked;
    e.id = id;
    return e;
}

bool
SplitHeap::restructure(std::optional<u32> incoming, Cycle now)
{
    // Run the sorter network over (hot0, hot1, incoming); apply the
    // result; pop from the CCT into empty slots and re-sort until
    // stable (pops can enable further merges). The returned flag
    // reports whether anything moved: an already-sorted heap with
    // nothing incoming must come back false, or the SM's
    // quiet-cycle detector would never let a stalled warp sleep.
    // Every hot id is no_ctx or a live context (a freed one leaves
    // its slot in the same pass), so hctSettled sees what the first
    // sorter pass would.
    if (!incoming &&
        hctSettled(toEntry(hot_[0]), toEntry(hot_[1]), cct_.empty()))
        return false;
    bool changed = incoming.has_value();
    std::optional<u32> extra = incoming;
    for (int iter = 0; iter < 8; ++iter) {
        SorterEntry a = toEntry(hot_[0]);
        SorterEntry b = toEntry(hot_[1]);
        SorterEntry c = extra ? toEntry(*extra) : SorterEntry{};
        extra.reset();

        SorterResult res = hctSort(a, b, c);

        // Contexts merged away must be freed: inputs - outputs.
        for (const SorterEntry *in : {&a, &b, &c}) {
            if (!in->valid)
                continue;
            bool survives = res.spill.valid && res.spill.id == in->id;
            for (const SorterEntry &out : res.hot) {
                if (out.valid && out.id == in->id)
                    survives = true;
            }
            if (!survives) {
                freeCtx(in->id);
                changed = true;
            }
        }
        // Surviving merged entries absorb the freed masks.
        for (const SorterEntry &out : res.hot) {
            if (!out.valid)
                continue;
            SplitContext &ctx = pool_[out.id];
            if (ctx.mask != out.mask) {
                ctx.mask = out.mask;
                ++ctx.version;
                changed = true;
            }
        }
        stats_.merges += res.merges;

        u32 h0 = res.hot[0].valid ? res.hot[0].id : no_ctx;
        u32 h1 = res.hot[1].valid ? res.hot[1].id : no_ctx;
        changed |= hot_[0] != h0 || hot_[1] != h1;
        hot_[0] = h0;
        hot_[1] = h1;

        if (res.spill.valid) {
            coldInsert(res.spill.id, now);
            changed = true;
        }

        if (!res.want_pop || cct_.empty())
            break;
        auto popped = cct_.pop(now);
        siwi_assert(popped, "pop from non-empty CCT failed");
        extra = popped->id;
        changed = true;
    }
    return changed;
}

bool
SplitHeap::promote(Cycle now)
{
    // Keep the hot slots holding the lowest PCs: if a cold context
    // beats an unpinned hot one, swap them. This restores heap order
    // after degraded (stack-mode) CCT insertions and guarantees
    // progress when hot contexts are suspended at SYNC barriers.
    auto cold_min = cct_.minPc();
    if (!cold_min)
        return false;
    int victim = promoteVictim(*cold_min);
    if (victim < 0)
        return false;

    auto popped = cct_.popMin(now);
    siwi_assert(popped, "promotion pop failed");
    u32 demoted = hot_[unsigned(victim)];
    hot_[unsigned(victim)] = no_ctx;
    ++pool_[demoted].version;
    coldInsert(demoted, now);
    ++stats_.promotions;
    restructure(popped->id, now);
    return true;
}

int
SplitHeap::promoteVictim(Pc cold_min) const
{
    int victim = -1;
    Pc victim_pc = 0;
    bool victim_blocked = false;
    for (unsigned s = 0; s < num_hot; ++s) {
        u32 id = hot_[s];
        if (id == no_ctx)
            continue;
        const SplitContext &c = pool_[id];
        // Branch-pending contexts are pinned hot; barrier-blocked
        // ones may be demoted (release scans the whole pool), which
        // is required for progress when cold splits still have to
        // reach the barrier. A blocked context may even be demoted
        // for an equal-PC cold one: the cold split has not issued
        // its barrier arrival yet and must get a hot slot to do so.
        if (c.branch_pending)
            continue;
        bool beats = c.pc > cold_min ||
                     (c.barrier_blocked && c.pc >= cold_min);
        if (!beats)
            continue;
        if (victim < 0 || c.pc > victim_pc ||
            (c.pc == victim_pc && c.barrier_blocked &&
             !victim_blocked)) {
            victim = int(s);
            victim_pc = c.pc;
            victim_blocked = c.barrier_blocked;
        }
    }
    return victim;
}

bool
SplitHeap::settled() const
{
    if (cct_.nextWake() != no_wake ||
        !hctSettled(toEntry(hot_[0]), toEntry(hot_[1]), cct_.empty()))
        return false;
    auto cold_min = cct_.minPc();
    return !cold_min || promoteVictim(*cold_min) < 0;
}

void
SplitHeap::coldInsert(u32 id, Cycle now)
{
    SplitContext &c = pool_[id];
    siwi_assert(c.valid && !c.branch_pending,
                "cold-inserting a pinned context");
    // Equal-PC compaction in the cold store: the sideband sorter
    // walks the PC-sorted list anyway, so reconverged cold splits
    // merge there (required for forward progress when blocked
    // contexts pile up behind a barrier while a hot slot is pinned).
    if (auto other = cct_.findByPc(c.pc)) {
        SplitContext &o = pool_[*other];
        if (!o.branch_pending &&
            o.barrier_blocked == c.barrier_blocked) {
            siwi_assert(!o.mask.intersects(c.mask),
                        "merging overlapping cold splits");
            o.mask |= c.mask;
            ++o.version;
            freeCtx(id);
            ++stats_.merges;
            return;
        }
    }
    cct_.insert(id, c.pc, now);
}

void
SplitHeap::advance(u32 id, Pc next, Cycle now)
{
    dirty_ = true;
    SplitContext &c = pool_[id];
    siwi_assert(c.valid, "advance on dead context");
    c.pc = next;
    ++c.version;
    restructure(std::nullopt, now);
}

void
SplitHeap::branchResolve(u32 id, Pc pc_a, LaneMask m_a, Pc pc_b,
                         LaneMask m_b, Cycle now)
{
    dirty_ = true;
    SplitContext &c = pool_[id];
    siwi_assert(c.valid, "branchResolve on dead context");
    siwi_assert((m_a | m_b) == c.mask && !m_a.intersects(m_b),
                "branch masks must partition the context");
    c.branch_pending = false;

    if (m_b.none()) {
        siwi_assert(m_a == c.mask, "uniform branch with partial mask");
        c.pc = pc_a;
        ++c.version;
        restructure(std::nullopt, now);
        return;
    }
    siwi_assert(m_a.any(), "branchResolve with empty path A");

    // Divergence: the original context keeps the lower-PC path.
    ++stats_.splits;
    Pc lo_pc = pc_a, hi_pc = pc_b;
    LaneMask lo_m = m_a, hi_m = m_b;
    if (hi_pc < lo_pc) {
        std::swap(lo_pc, hi_pc);
        std::swap(lo_m, hi_m);
    }
    c.pc = lo_pc;
    c.mask = lo_m;
    ++c.version;
    u32 split = alloc(hi_pc, hi_m);
    restructure(split, now);
}

void
SplitHeap::exitResolve(u32 id, Cycle now)
{
    dirty_ = true;
    SplitContext &c = pool_[id];
    siwi_assert(c.valid, "exitResolve on dead context");
    c.branch_pending = false;
    for (unsigned s = 0; s < num_hot; ++s) {
        if (hot_[s] == id)
            hot_[s] = no_ctx;
    }
    freeCtx(id);
    restructure(std::nullopt, now);
}

void
SplitHeap::memorySplit(u32 id, LaneMask advancing, Pc next, Cycle now)
{
    dirty_ = true;
    SplitContext &c = pool_[id];
    siwi_assert(c.valid, "memorySplit on dead context");
    siwi_assert(advancing.any() && advancing.subsetOf(c.mask) &&
                advancing != c.mask,
                "memorySplit mask must be a strict subset");
    ++stats_.splits;
    c.mask &= ~advancing;
    ++c.version;
    u32 split = alloc(next, advancing);
    restructure(split, now);
}

void
SplitHeap::barrierRelease(Cycle now)
{
    dirty_ = true;
    for (SplitContext &c : pool_) {
        if (c.valid && c.barrier_blocked) {
            c.barrier_blocked = false;
            c.pc = c.pc + 1;
            ++c.version;
        }
    }
    restructure(std::nullopt, now);
}

bool
SplitHeap::tick(Cycle now)
{
    bool changed = cct_.tick(now);
    if (changed)
        dirty_ = true;
    if (!dirty_)
        return false;
    changed |= restructure(std::nullopt, now);
    changed |= promote(now);
    // A pass that moved something may have enabled another (e.g. a
    // promotion freeing a slot): stay dirty and settle next tick.
    dirty_ = changed;
    return changed;
}

} // namespace siwi::divergence
