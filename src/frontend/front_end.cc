#include "frontend/front_end.hh"

#include "common/log.hh"
#include "pipeline/config.hh"
#include "pipeline/exec_unit.hh"

namespace siwi::frontend {

using isa::UnitClass;
using pipeline::IBufEntry;
using pipeline::LookupCandidate;
using pipeline::SMConfig;

// ----------------------------------------------------------------
// policy selection + the simple issue stage
// ----------------------------------------------------------------

FrontEnd::FrontEnd(FrontEndHost &host)
    : host_(host),
      lookup_(host.numWarps(), host.config().lookup_sets, 0xdecaf),
      rng_(0xc0ffee),
      either_slot_(host.numWarps())
{
    const SMConfig &cfg = host_.config();
    for (unsigned pool = 0; pool < 2; ++pool) {
        policy_[pool] = makeSchedPolicy(cfg.sched_policy,
                                        host_.numWarps());
        pool_scratch_[pool].reserve(host_.numWarps());
    }
}

bool
FrontEnd::issueCycle()
{
    if (host_.config().swi)
        return issueCascaded();
    return issueSimple();
}

std::span<const Cand>
FrontEnd::poolDomain(unsigned pool)
{
    // Rebuilt per select from the issue candidates: every other
    // warp is provably unready, so the policies rank the same ready
    // candidates, in the same ascending-warp order, as a full scan
    // — only the provably fruitless probes are gone.
    const SMConfig &cfg = host_.config();
    std::vector<Cand> &d = pool_scratch_[pool];
    d.clear();
    host_.issueCandidates(0).forEach([&](WarpId w) {
        if (cfg.num_pools == 2 && (w % 2) != pool)
            return;
        d.push_back({w, 0});
    });
    return d;
}

std::optional<Cand>
FrontEnd::selectPrimary(unsigned pool, std::span<const Cand> cands,
                        bool check_group)
{
    return policy_[pool]->select(host_, cands, check_group);
}

bool
FrontEnd::issueSimple()
{
    host_.clearLastPrimary();
    const SMConfig &cfg = host_.config();
    bool issued = false;

    if (cfg.num_pools == 2) {
        // Two symmetric schedulers; alternate arbitration priority
        // for the shared SFU/LSU groups.
        unsigned first = unsigned(host_.now() & 1);
        for (unsigned k = 0; k < 2; ++k) {
            unsigned pool = (first + k) % 2;
            auto c = selectPrimary(pool, poolDomain(pool), true);
            if (c && host_.issueCand(c->w, c->slot, false, nullptr,
                                     false)) {
                notifyIssued(pool, *c);
                issued = true;
            }
        }
        return issued;
    }

    // SBI: primary over CPC1 entries, secondary over CPC2 entries.
    auto c = selectPrimary(0, poolDomain(0), true);
    if (c &&
        host_.issueCand(c->w, c->slot, false, nullptr, false)) {
        notifyIssued(0, *c);
        issued = true;
    }
    issued |= issueSecondarySimple(host_.lastPrimary());
    return issued;
}

bool
FrontEnd::issueSecondarySimple(const PrimaryIssueInfo &pinfo)
{
    // Secondary front-end: oldest ready CPC2 (hot slot 1) entry.
    // Same warp as the primary may share the primary's row (their
    // masks are disjoint by construction); any other candidate needs
    // a free execution group.
    std::optional<Cand> best;
    bool best_row = false;
    u64 best_seq = ~u64(0);
    host_.issueCandidates(1).forEach([&](WarpId w) {
        if (!host_.ready(w, 1, false))
            return;
        const IBufEntry *e = host_.entryFor(w, 1);
        UnitClass cls = e->unit;
        bool row = pinfo.valid && w == pinfo.w &&
                   cls == pinfo.unit && cls != UnitClass::LSU;
        if (!row && !host_.freeGroup(cls))
            return;
        if (e->seq < best_seq) {
            best_seq = e->seq;
            best = Cand{w, 1};
            best_row = row;
        }
    });
    if (best) {
        PrimaryIssueInfo pcopy = pinfo;
        return host_.issueCand(best->w, best->slot, true, &pcopy,
                               best_row);
    }

    if (!host_.config().sbi_secondary_fallback)
        return false;

    // Fallback: issue another warp's primary-context instruction to
    // a different SIMD group (docs/DESIGN.md interpretation note).
    best.reset();
    best_seq = ~u64(0);
    host_.issueCandidates(0).forEach([&](WarpId w) {
        if (pinfo.valid && w == pinfo.w)
            return;
        if (!host_.ready(w, 0, true))
            return;
        const IBufEntry *e = host_.entryFor(w, 0);
        if (e->seq < best_seq) {
            best_seq = e->seq;
            best = Cand{w, 0};
        }
    });
    if (best) {
        if (host_.issueCand(best->w, best->slot, true, nullptr,
                            false)) {
            host_.stats().fallback_issues += 1;
            return true;
        }
    }
    return false;
}

// ----------------------------------------------------------------
// the cascaded (SWI) issue stage
// ----------------------------------------------------------------

std::optional<Cand>
FrontEnd::pickSubstitute()
{
    // The secondary scheduler substituting for an absent primary
    // (section 4). Its policy must stay decorrelated from the
    // primary's oldest-first selection -- best-fit with
    // pseudo-random tie-breaking -- or the two would keep picking
    // the same instruction and squash each other forever.
    // The domain (section 4) is every CPC1 slot, plus every CPC2
    // slot on SBI machines, visited slot-major over each slot's
    // issue candidates — the order of a full-warp domain,
    // which the RNG tie-break stream depends on. Skipped warps are
    // never ready, so skipping them cannot perturb a draw.
    std::optional<Cand> best;
    unsigned best_count = 0;
    unsigned ties = 0;
    auto consider = [&](WarpId w, unsigned slot) {
        if (!host_.ready(w, slot, true))
            return;
        unsigned count = host_.entryFor(w, slot)->mask.count();
        if (!best || count > best_count) {
            best = Cand{w, slot};
            best_count = count;
            ties = 1;
        } else if (count == best_count) {
            ++ties;
            if (rng_.below(ties) == 0)
                best = Cand{w, slot};
        }
    };
    host_.issueCandidates(0).forEach([&](WarpId w) { consider(w, 0); });
    if (host_.config().sbi)
        host_.issueCandidates(1).forEach([&](WarpId w) { consider(w, 1); });
    return best;
}

std::optional<Cand>
FrontEnd::pickSecondaryCascaded(
    const PrimaryIssueInfo &pinfo, bool *row_share_out)
{
    *row_share_out = false;

    if (!pinfo.valid)
        return pickSubstitute();

    // Mask-inclusion lookup (section 4): candidates either fit the
    // free lanes of the primary's row or can go to a free group.
    LaneMask free_lanes = ~pinfo.mask;
    bool primary_row_shareable = pinfo.unit != UnitClass::LSU;

    std::vector<LookupCandidate> &lc = lookup_scratch_;
    std::vector<Cand> &cands = cand_scratch_;
    lc.clear();
    cands.clear();
    // Warp-major over the warps with either slot a candidate: the
    // lookup's tie-break draws depend on this order.
    bool sbi = host_.config().sbi;
    either_slot_ = host_.issueCandidates(0);
    if (sbi)
        either_slot_ |= host_.issueCandidates(1);
    either_slot_.forEach([&](WarpId w) {
        for (unsigned slot = 0; slot < 2; ++slot) {
            if (slot == 1 && !sbi)
                continue;
            if (slot == 0 && w == pinfo.w)
                continue; // primary context just issued
            if (!host_.issueCandidates(slot).contains(w))
                continue; // provably not ready
            if (!host_.ready(w, slot, false))
                continue;
            const IBufEntry *e = host_.entryFor(w, slot);
            UnitClass cls = e->unit;
            LookupCandidate c;
            c.key = u32(cands.size());
            c.warp = w;
            c.mask = e->mask;
            c.same_unit = primary_row_shareable && cls == pinfo.unit;
            c.other_unit_free = host_.freeGroup(cls) != nullptr;
            // Same-warp CPC2 co-issue is the SBI path: structural,
            // not set-restricted (mask disjointness is guaranteed).
            if (w == pinfo.w || lookup_.eligible(pinfo.w, w)) {
                lc.push_back(c);
                cands.push_back({w, slot});
            }
        }
    });
    auto picked = lookup_.pick(pinfo.w, free_lanes, lc);
    if (!picked)
        return std::nullopt;
    const LookupCandidate &sel = lc[*picked];
    *row_share_out =
        sel.same_unit && sel.mask.subsetOf(free_lanes);
    return cands[*picked];
}

bool
FrontEnd::issueCascaded()
{
    host_.clearLastPrimary();

    // Activity tracking for the cycle-skipping loop: issues, the
    // cascade-register transitions (stale drop, park) and squashed
    // conflicts all mutate state and count; a held pick is a net
    // no-op (claimed toggles off and back on) and does not.
    bool activity = false;

    // Phase B snapshot: the primary scheduler selects its next pick
    // in parallel with this cycle's issue (cascaded scheduling,
    // section 4). Claimed entries (the parked pick) are skipped.
    std::optional<Cand> next_pick =
        selectPrimary(0, poolDomain(0), false);
    u32 next_pick_ctx = 0;
    if (next_pick)
        next_pick_ctx =
            host_.entryFor(next_pick->w, next_pick->slot)->ctx_id;

    // Phase A: issue the parked primary pick.
    bool held = false;
    if (cascade_.valid) {
        // Re-locate the parked context (the sorter may have moved
        // it between hot slots).
        IBufEntry *e = host_.findCtx(cascade_.w, cascade_.ctx_id);
        int slot = -1;
        for (unsigned s = 0; s < 2; ++s) {
            CtxView cv = host_.ctxView(cascade_.w, s);
            if (cv.valid && cv.id == cascade_.ctx_id &&
                cv.version == cascade_.ctx_version) {
                slot = int(s);
            }
        }
        if (!e || slot < 0 ||
            e->ctx_version != cascade_.ctx_version) {
            // The warp-split branched, merged or was demoted under
            // the parked pick: drop it.
            host_.stats().cascade_stale += 1;
            if (e && e->claimed)
                host_.dropClaim(cascade_.w, *e);
            cascade_.valid = false;
            activity = true;
        } else {
            e->claimed = false; // allow ready() to see it
            if (host_.ready(cascade_.w, unsigned(slot), true)) {
                if (host_.issueCand(cascade_.w, unsigned(slot),
                                    false, nullptr, false)) {
                    // The pick issued for real: only now advance
                    // the policy's cursor state.
                    notifyIssued(
                        0, Cand{cascade_.w, unsigned(slot)});
                }
                cascade_.valid = false;
                activity = true;
            } else {
                // Structural stall: hold the pick, retry next cycle.
                e->claimed = true;
                held = true;
            }
        }
    }

    // Secondary scheduler (one pipeline stage behind the primary).
    bool row_share = false;
    std::optional<u32> sec_issued_ctx;
    WarpId sec_issued_warp = 0;
    auto sec =
        pickSecondaryCascaded(host_.lastPrimary(), &row_share);
    if (sec) {
        u32 ctx = host_.entryFor(sec->w, sec->slot)->ctx_id;
        PrimaryIssueInfo pcopy = host_.lastPrimary();
        if (host_.issueCand(sec->w, sec->slot, true,
                            pcopy.valid ? &pcopy : nullptr,
                            row_share)) {
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
        host_.stats().conflicts_squashed += 1;
        return true;
    }
    IBufEntry *e = host_.entryFor(next_pick->w, next_pick->slot);
    if (!e)
        return activity; // consumed or invalidated this cycle
    cascade_.valid = true;
    cascade_.w = next_pick->w;
    cascade_.ctx_id = e->ctx_id;
    cascade_.ctx_version = e->ctx_version;
    e->claimed = true;
    return true;
}

} // namespace siwi::frontend
