#include "frontend/front_end.hh"

#include "common/log.hh"
#include "pipeline/config.hh"
#include "pipeline/sm.hh"

namespace siwi::frontend {

using isa::UnitClass;
using pipeline::IBufEntry;
using pipeline::SMConfig;

namespace {

/**
 * Best-fit selection (section 4): the candidate with the most
 * active lanes, ties broken reservoir-style, so every draw depends
 * on the order in which candidates are offered.
 */
struct BestFit
{
    std::optional<Cand> best;
    unsigned lanes = 0;
    unsigned ties = 0;

    /** Offer @p c with @p n active lanes; true when it is the pick now. */
    bool offer(Cand c, unsigned n, Rng &rng)
    {
        if (!best || n > lanes) {
            best = c;
            lanes = n;
            ties = 1;
            return true;
        }
        if (n == lanes && rng.below(++ties) == 0) {
            best = c;
            return true;
        }
        return false;
    }
};

} // namespace

// ----------------------------------------------------------------
// candidate scans over the issue table
// ----------------------------------------------------------------

IssueScans::IssueScans(unsigned num_warps)
    : either_slot_(num_warps)
{
    for (SlotScan &s : slot_) {
        s.ready.reset(num_warps);
        s.gated.reset(num_warps);
    }
}

SlotScan &
IssueScans::scan(const IssueTable &t, const ScanLive &live,
                 unsigned slot, const pipeline::WarpSet *domain,
                 bool check_group)
{
    // Copying a set of the same capacity reuses its storage.
    SlotScan &s = slot_[slot];
    s.ready = t.issuable[slot];
    s.gated = t.sync_gated[slot];
    if (domain) {
        s.ready &= *domain;
        s.gated &= *domain;
    }
    // Only the cascade register claims an entry, so only its warp's
    // row can hold one.
    if (live.cascade_w) {
        const IBufEntry *e = t.entry[slot][*live.cascade_w];
        if (e && e->claimed)
            s.drop(*live.cascade_w);
    }
    if (check_group && live.free_units != all_units) {
        s.ready.forEach([&](WarpId w) {
            if (!(live.free_units & unitBit(t.unit[slot][w])))
                s.ready.erase(w);
        });
    }
    return s;
}

std::optional<Cand>
IssueScans::primary(const IssueTable &t, const ScanLive &live,
                    const SchedPolicy &policy,
                    const pipeline::WarpSet *pool, bool check_group,
                    u64 *sync)
{
    return policy.select(t, scan(t, live, 0, pool, check_group), sync);
}

std::optional<Cand>
IssueScans::secondary(const IssueTable &t, const ScanLive &live,
                      const PrimaryIssueInfo &pinfo, bool *row_share,
                      u64 *sync)
{
    const SlotScan &s = scan(t, live, 1, nullptr, false);
    *sync += s.gated.count();
    std::optional<Cand> best;
    u64 best_seq = ~u64(0);
    *row_share = false;
    s.ready.forEach([&](WarpId w) {
        UnitClass cls = t.unit[1][w];
        bool row = pinfo.valid && w == pinfo.w &&
                   cls == pinfo.unit && cls != UnitClass::LSU;
        if (!row && !(live.free_units & unitBit(cls)))
            return;
        if (t.seq[1][w] < best_seq) {
            best_seq = t.seq[1][w];
            best = Cand{w, 1};
            *row_share = row;
        }
    });
    return best;
}

std::optional<Cand>
IssueScans::fallback(const IssueTable &t, const ScanLive &live,
                     const PrimaryIssueInfo &pinfo, u64 *sync)
{
    SlotScan &s = scan(t, live, 0, nullptr, true);
    if (pinfo.valid)
        s.drop(pinfo.w);
    *sync += s.gated.count();
    return oldestIn(t, 0, s.ready);
}

std::optional<Cand>
IssueScans::substitute(const IssueTable &t, const ScanLive &live,
                       bool sbi, Rng &rng, u64 *sync)
{
    // Its policy must stay decorrelated from the primary's
    // oldest-first selection -- best-fit with pseudo-random
    // tie-breaking -- or the two would keep picking the same
    // instruction and squash each other forever. The draws depend
    // on the candidate order: slot-major, ascending warps.
    BestFit fit;
    for (unsigned slot = 0; slot < (sbi ? 2u : 1u); ++slot) {
        const SlotScan &s = scan(t, live, slot, nullptr, true);
        *sync += s.gated.count();
        s.ready.forEach([&](WarpId w) {
            fit.offer(Cand{w, slot}, t.entry[slot][w]->mask.count(), rng);
        });
    }
    return fit.best;
}

std::optional<Cand>
IssueScans::lookup(const IssueTable &t, const ScanLive &live,
                   const PrimaryIssueInfo &pinfo, bool sbi,
                   pipeline::MaskLookup &sets, bool *row_share,
                   u64 *sync)
{
    // Every gated candidate counts, inside the primary's set or not.
    SlotScan &s0 = scan(t, live, 0, nullptr, false);
    s0.drop(pinfo.w); // the primary context just issued
    *sync += s0.gated.count();
    either_slot_ = s0.ready;
    if (sbi) {
        const SlotScan &s1 = scan(t, live, 1, nullptr, false);
        *sync += s1.gated.count();
        either_slot_ |= s1.ready;
    }
    // Only the primary's set is searched. Its own warp is in it, so
    // same-warp CPC2 co-issue (SBI's path) is never set-restricted.
    either_slot_ &= sets.members(pinfo.w);

    const LaneMask free_lanes = ~pinfo.mask;
    const bool primary_row_shareable = pinfo.unit != UnitClass::LSU;
    BestFit fit;
    *row_share = false;
    // Warp-major, then slot: the tie-break draws depend on this order.
    either_slot_.forEach([&](WarpId w) {
        for (unsigned slot = 0; slot < (sbi ? 2u : 1u); ++slot) {
            if (!slot_[slot].ready.contains(w))
                continue;
            const LaneMask mask = t.entry[slot][w]->mask;
            const UnitClass cls = t.unit[slot][w];
            // Fits the primary's free lanes on its row, or has a
            // free group of its own.
            bool row = primary_row_shareable && cls == pinfo.unit &&
                       mask.subsetOf(free_lanes);
            if (!row && !(live.free_units & unitBit(cls)))
                continue;
            if (fit.offer(Cand{w, slot}, mask.count(), sets.rng()))
                *row_share = row;
        }
    });
    return fit.best;
}

// ----------------------------------------------------------------
// policy selection + the simple issue stage
// ----------------------------------------------------------------

FrontEnd::FrontEnd(pipeline::SM &sm, const SMConfig &cfg)
    : sm_(sm),
      num_warps_(cfg.num_warps),
      swi_(cfg.swi),
      sbi_(cfg.sbi),
      two_pools_(cfg.num_pools == 2),
      sbi_fallback_(cfg.sbi_secondary_fallback),
      policy_{SchedPolicy(cfg.sched_policy, cfg.num_warps),
              SchedPolicy(cfg.sched_policy, cfg.num_warps)},
      scans_(cfg.num_warps),
      lookup_(cfg.num_warps, cfg.lookup_sets, 0xdecaf),
      rng_(0xc0ffee)
{
    for (unsigned pool = 0; pool < 2; ++pool) {
        pool_warps_[pool].reset(num_warps_);
        for (WarpId w = WarpId(pool); w < num_warps_; w += 2)
            pool_warps_[pool].insert(w);
    }
}

bool
FrontEnd::issueCycle()
{
    primary_ = PrimaryIssueInfo{};
    if (swi_)
        return issueCascaded();
    return issueSimple();
}

ScanLive
FrontEnd::live() const
{
    ScanLive l;
    l.free_units = sm_.freeUnits();
    if (cascade_.valid)
        l.cascade_w = cascade_.w;
    return l;
}

std::optional<Cand>
FrontEnd::selectPrimary(unsigned pool, bool check_group)
{
    const pipeline::WarpSet *domain =
        two_pools_ ? &pool_warps_[pool] : nullptr;
    return scans_.primary(sm_.issueTable(), live(), policy_[pool],
                          domain, check_group,
                          &sm_.stats().sync_suspensions);
}

bool
FrontEnd::issuePrimary(unsigned pool, std::optional<Cand> c)
{
    if (!c || !sm_.issueCand(c->w, c->slot, false, nullptr, &primary_))
        return false;
    policy_[pool].notifyIssued(*c);
    return true;
}

bool
FrontEnd::issueSimple()
{
    if (two_pools_) {
        // Two symmetric schedulers; alternate arbitration priority
        // for the shared SFU/LSU groups.
        bool issued = false;
        unsigned first = unsigned(sm_.now() & 1);
        for (unsigned k = 0; k < 2; ++k) {
            unsigned pool = (first + k) % 2;
            issued |= issuePrimary(pool, selectPrimary(pool, true));
        }
        return issued;
    }

    // SBI: primary over CPC1 entries, secondary over CPC2 entries.
    bool issued = issuePrimary(0, selectPrimary(0, true));
    issued |= issueSecondarySimple();
    return issued;
}

bool
FrontEnd::issueSecondarySimple()
{
    const IssueTable &t = sm_.issueTable();
    const ScanLive l = live();
    u64 *sync = &sm_.stats().sync_suspensions;
    bool row = false;
    if (auto best = scans_.secondary(t, l, primary_, &row, sync)) {
        return sm_.issueCand(best->w, best->slot, true,
                             row ? primary_.group : nullptr, nullptr);
    }

    if (!sbi_fallback_)
        return false;

    // Fallback: issue another warp's primary-context instruction to
    // a different SIMD group (docs/DESIGN.md interpretation note).
    auto best = scans_.fallback(t, l, primary_, sync);
    if (best && sm_.issueCand(best->w, best->slot, true, nullptr, nullptr)) {
        sm_.stats().fallback_issues += 1;
        return true;
    }
    return false;
}

// ----------------------------------------------------------------
// the cascaded (SWI) issue stage
// ----------------------------------------------------------------

bool
FrontEnd::cascadeReady(unsigned slot)
{
    const IssueTable &t = sm_.issueTable();
    WarpId w = cascade_.w;
    if (t.sync_gated[slot].contains(w)) {
        sm_.stats().sync_suspensions += 1;
        return false;
    }
    return t.issuable[slot].contains(w) &&
           (sm_.freeUnits() & unitBit(t.unit[slot][w]));
}

bool
FrontEnd::issueCascaded()
{
    // Activity tracking for the cycle-skipping loop: issues, the
    // cascade-register transitions (stale drop, park) and squashed
    // conflicts all mutate state and count; a held pick is a net
    // no-op (claimed toggles off and back on) and does not.
    bool activity = false;

    // Phase B snapshot: the primary scheduler selects its next pick
    // in parallel with this cycle's issue (cascaded scheduling,
    // section 4). Claimed entries (the parked pick) are skipped.
    std::optional<Cand> next_pick = selectPrimary(0, false);
    u32 next_pick_ctx = 0;
    if (next_pick) {
        next_pick_ctx = sm_.issueTable()
                            .entry[next_pick->slot][next_pick->w]
                            ->ctx_id;
    }

    // Phase A: issue the parked primary pick.
    bool held = false;
    if (cascade_.valid) {
        // Re-locate the parked context (the sorter may have moved
        // it between hot slots).
        IBufEntry *e = sm_.findCtx(cascade_.w, cascade_.ctx_id);
        const CtxViews &views = sm_.issueTable().views[cascade_.w];
        int slot = -1;
        for (unsigned s = 0; s < 2; ++s) {
            const CtxView &cv = views[s];
            if (cv.valid && cv.id == cascade_.ctx_id &&
                cv.version == cascade_.ctx_version) {
                slot = int(s);
            }
        }
        if (!e || slot < 0 ||
            e->ctx_version != cascade_.ctx_version) {
            // The warp-split branched, merged or was demoted under
            // the parked pick: drop it.
            sm_.stats().cascade_stale += 1;
            if (e && e->claimed)
                sm_.dropClaim(cascade_.w, *e);
            cascade_.valid = false;
            activity = true;
        } else {
            e->claimed = false; // the probe must see it
            if (cascadeReady(unsigned(slot))) {
                issuePrimary(0, Cand{cascade_.w, unsigned(slot)});
                cascade_.valid = false;
                activity = true;
            } else {
                // Structural stall: hold the pick, retry next cycle.
                e->claimed = true;
                held = true;
            }
        }
    }

    // Secondary scheduler (one pipeline stage behind the primary,
    // section 4): the mask-inclusion lookup, whose candidates fit
    // the free lanes of the primary's row or go to a free group, or
    // the substitute for an absent primary.
    const IssueTable &t = sm_.issueTable();
    u64 *sync = &sm_.stats().sync_suspensions;
    bool row_share = false;
    std::optional<u32> sec_issued_ctx;
    WarpId sec_issued_warp = 0;
    std::optional<Cand> sec =
        primary_.valid ? scans_.lookup(t, live(), primary_, sbi_, lookup_,
                                       &row_share, sync)
                       : scans_.substitute(t, live(), sbi_, rng_, sync);
    if (sec) {
        u32 ctx = t.entry[sec->slot][sec->w]->ctx_id;
        if (sm_.issueCand(sec->w, sec->slot, true,
                          row_share ? primary_.group : nullptr,
                          nullptr)) {
            sec_issued_ctx = ctx;
            sec_issued_warp = sec->w;
            activity = true;
        }
    }

    // Phase B: park the next primary pick; detect the a-posteriori
    // conflict where the secondary issued the same instruction this
    // cycle (the primary's copy is discarded, section 4).
    if (held)
        return activity;
    if (!next_pick)
        return activity;
    if (sec_issued_ctx && sec_issued_warp == next_pick->w &&
        *sec_issued_ctx == next_pick_ctx) {
        sm_.stats().conflicts_squashed += 1;
        return true;
    }
    IBufEntry *e =
        sm_.issueTable().entry[next_pick->slot][next_pick->w];
    if (!e)
        return activity; // consumed or invalidated this cycle
    cascade_.valid = true;
    cascade_.w = next_pick->w;
    cascade_.ctx_id = e->ctx_id;
    cascade_.ctx_version = e->ctx_version;
    e->claimed = true;
    return true;
}

// ----------------------------------------------------------------
// fetch arbitration
// ----------------------------------------------------------------

void
FrontEnd::fetchCycle()
{
    for (unsigned fe = 0; fe < 2; ++fe) {
        if (two_pools_) {
            fetchFrom(fe, 0, &pool_warps_[fe]); // its own pool's warps
            continue;
        }
        // SBI's secondary front-end helps fetch primary contexts
        // when it has nothing of its own to do.
        if (!fetchFrom(fe, sbi_ ? fe : 0, nullptr) && sbi_ && fe == 1 &&
            sbi_fallback_)
            fetchFrom(fe, 0, nullptr);
    }
}

bool
FrontEnd::fetchFrom(unsigned fe, unsigned slot, const pipeline::WarpSet *pool)
{
    // Cyclic scan over the slot's fetch set: every other warp's
    // tryFetch would fail (a parked warp is by definition
    // non-fetchable, sleepEligible mirrors tryFetch), so the scan
    // reaches the same successful candidate the full warp scan
    // would, in the same round-robin order.
    return sm_.fetch_work_[slot].forEachWrapped(
        fetch_rr_[fe], [&](WarpId w) {
            if ((pool && !pool->contains(w)) || !sm_.tryFetch(w, slot))
                return false;
            fetch_rr_[fe] = WarpId((w + 1) % num_warps_);
            return true;
        });
}

} // namespace siwi::frontend
