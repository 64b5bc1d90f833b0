/**
 * @file
 * Unit tests for the SchedPolicy kinds and the issue stage's
 * candidate scans, against scripted issue-table rows: selection
 * order, cursor/greedy state, the policy names, and every scan
 * against a reference loop that probes each candidate in turn.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/config_reflect.hh"
#include "common/rng.hh"
#include "frontend/front_end.hh"
#include "frontend/sched_policy.hh"
#include "pipeline/config.hh"

using namespace siwi;
using namespace siwi::frontend;
using isa::UnitClass;
using pipeline::IBufEntry;
using pipeline::WarpSet;

namespace {

/**
 * Scripted rows: per (warp, slot) an optional entry and its state.
 * Builds the IssueTable the scans read, and answers the reference
 * probe — a ready() probe of one candidate, counting SYNC-gated
 * ones — that the scans must agree with.
 */
class Rows
{
  public:
    struct Row
    {
        bool has_entry = false;
        SlotState state = SlotState::Blocked;
        IBufEntry e;
    };

    explicit Rows(unsigned num_warps)
        : n_(num_warps), rows_(2 * num_warps), table_(num_warps)
    {
    }

    unsigned size() const { return n_; }
    Row &at(WarpId w, unsigned s) { return rows_[2 * w + s]; }

    /** A fresh, issuable slot-0 entry of age @p seq at @p pc. */
    void ready(WarpId w, u64 seq, Pc pc = 0)
    {
        Row &r = at(w, 0);
        r.has_entry = true;
        r.state = SlotState::Issuable;
        r.e.seq = seq;
        r.e.pc = pc;
    }

    /** The table as the host would store it. */
    const IssueTable &table()
    {
        for (WarpId w = 0; w < n_; ++w) {
            for (unsigned s = 0; s < 2; ++s) {
                Row &r = at(w, s);
                table_.set(w, s,
                           {r.has_entry ? &r.e : nullptr, r.state});
            }
        }
        return table_;
    }

    /** The probe-per-candidate readiness test. */
    bool probe(WarpId w, unsigned s, bool check_group, UnitMask free,
               u64 *sync) const
    {
        const Row &r = rows_[2 * w + s];
        if (!r.has_entry || r.e.claimed)
            return false;
        if (r.state == SlotState::SyncGated) {
            ++*sync;
            return false;
        }
        if (r.state != SlotState::Issuable)
            return false;
        return !check_group || (free & unitBit(r.e.unit));
    }

    const IBufEntry &entry(WarpId w, unsigned s) const
    {
        return rows_[2 * w + s].e;
    }

  private:
    unsigned n_;
    std::vector<Row> rows_;
    IssueTable table_;
};

/** A primary pick with every execution group free. */
std::optional<Cand>
pick(const SchedPolicy &p, Rows &rows)
{
    IssueScans scans(rows.size());
    ScanLive live;
    live.free_units = all_units;
    u64 sync = 0;
    return scans.primary(rows.table(), live, p, nullptr, true, &sync);
}

TEST(SchedPolicyRegistry, NamesRoundTrip)
{
    for (size_t i = 0; i < std::size(sched_policy_names); ++i) {
        const auto k = SchedPolicyKind(i);
        SchedPolicyKind back;
        ASSERT_TRUE(enumIndex(sched_policy_names, schedPolicyName(k),
                              &back));
        EXPECT_EQ(back, k);
    }
    SchedPolicyKind k;
    EXPECT_FALSE(enumIndex(sched_policy_names, "nope", &k));
    ASSERT_TRUE(enumIndex(sched_policy_names, "RR", &k));
    EXPECT_EQ(k, SchedPolicyKind::RoundRobin);
    EXPECT_STREQ(schedPolicyName(SchedPolicyKind::OldestFirst),
                 "oldest");
}

TEST(SchedPolicyRegistry, MachineAndPolicyTables)
{
    EXPECT_EQ(std::size(pipeline::pipeline_mode_names), 5u);
    pipeline::PipelineMode mode;
    ASSERT_TRUE(
        enumIndex(pipeline::pipeline_mode_names, "SBI+SWI", &mode));
    EXPECT_EQ(mode, pipeline::PipelineMode::SBISWI);
    EXPECT_FALSE(enumIndex(pipeline::pipeline_mode_names, "nope", &mode));

    EXPECT_EQ(std::size(sched_policy_names), 4u);
    SchedPolicyKind kind;
    ASSERT_TRUE(enumIndex(sched_policy_names, "gto", &kind));
    EXPECT_EQ(kind, SchedPolicyKind::GreedyThenOldest);
    EXPECT_FALSE(enumIndex(sched_policy_names, "nope", &kind));
}

TEST(SchedPolicy, OldestFirstPicksMinimumSeq)
{
    Rows rows(4);
    SchedPolicy p(SchedPolicyKind::OldestFirst, 4);
    rows.ready(1, 30, 5);
    rows.ready(2, 10, 9);
    rows.ready(3, 20, 1);
    auto c = pick(p, rows);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->w, 2u);

    rows.at(2, 0).has_entry = false;
    c = pick(p, rows);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->w, 3u);

    for (WarpId w = 0; w < 4; ++w)
        rows.at(w, 0).has_entry = false;
    EXPECT_FALSE(pick(p, rows).has_value());
}

TEST(SchedPolicy, RoundRobinAdvancesPastIssuedWarp)
{
    Rows rows(4);
    SchedPolicy p(SchedPolicyKind::RoundRobin, 4);
    for (WarpId w = 0; w < 4; ++w)
        rows.ready(w, u64(100 - w)); // ages decorrelated

    auto c = pick(p, rows);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u); // cursor starts at warp 0
    p.notifyIssued(*c);

    c = pick(p, rows);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 1u); // cursor moved past warp 0
    p.notifyIssued(*c);

    rows.at(2, 0).has_entry = false; // loose: skip stalled warp
    c = pick(p, rows);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 3u);
    p.notifyIssued(*c);

    c = pick(p, rows); // wraps to warp 0
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u);
}

TEST(SchedPolicy, GtoSticksWithLastWarpThenOldest)
{
    Rows rows(4);
    SchedPolicy p(SchedPolicyKind::GreedyThenOldest, 4);
    rows.ready(0, 50);
    rows.ready(2, 10);

    // No last warp yet: oldest (warp 2) wins.
    auto c = pick(p, rows);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u);
    p.notifyIssued(*c);

    // Warp 2 still ready: greedy keeps it even when another warp
    // holds the older instruction now.
    rows.at(0, 0).e.seq = 1;
    c = pick(p, rows);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u);
    p.notifyIssued(*c);

    // Last warp dries up: fall back to oldest.
    rows.at(2, 0).has_entry = false;
    c = pick(p, rows);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u);
}

TEST(SchedPolicy, MinPcPrefersTrailingPcWithAgeTieBreak)
{
    Rows rows(4);
    SchedPolicy p(SchedPolicyKind::MinPc, 4);
    rows.ready(0, 5, 40);
    rows.ready(1, 9, 12);
    rows.ready(2, 3, 12);
    rows.ready(3, 1, 90);

    auto c = pick(p, rows);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u); // pc 12, and older than warp 1
}

// ----------------------------------------------------------------
// The table-driven scans against probe-every-candidate references.
// Each reference is the probe loop the scans replace: it visits
// the candidates in the scan's order and calls probe() on each.
// ----------------------------------------------------------------

/** One random scan setting: rows, live inputs, primary info. */
struct Trial
{
    Rows rows;
    ScanLive live;
    PrimaryIssueInfo pinfo;
    WarpSet pool;    //!< a two-pool machine's pool
    bool use_pool;   //!< scan the pool, or every warp
    WarpId last;     //!< the policy's last issued warp
    bool have_last;  //!< whether it has issued yet

    explicit Trial(unsigned n) : rows(n), pool(n) {}
};

const UnitClass unit_classes[] = {UnitClass::MAD, UnitClass::SFU,
                                  UnitClass::LSU};

Trial
randomTrial(Rng &rng)
{
    const unsigned n = 1 + unsigned(rng.below(70));
    Trial t(n);
    // Distinct ages, few PCs and lane counts: ties in PC and in
    // mask population are common.
    std::vector<u64> ages(2 * n);
    std::iota(ages.begin(), ages.end(), 1);
    for (size_t i = ages.size(); i > 1; --i)
        std::swap(ages[i - 1], ages[rng.below(i)]);
    for (WarpId w = 0; w < n; ++w) {
        for (unsigned s = 0; s < 2; ++s) {
            Rows::Row &r = t.rows.at(w, s);
            r.has_entry = rng.below(10) < 7;
            r.state = SlotState(rng.below(3));
            r.e.seq = ages[2 * w + s];
            r.e.pc = Pc(rng.below(4));
            r.e.mask = LaneMask(rng.below(8) + 1);
            r.e.unit = unit_classes[rng.below(3)];
            r.e.ctx_id = u32(s);
        }
    }
    // The cascade register's warp, with one of its entries claimed
    // (or none: a held pick is unclaimed while it is probed).
    if (rng.below(2)) {
        WarpId cw = WarpId(rng.below(n));
        t.live.cascade_w = cw;
        Rows::Row &r = t.rows.at(cw, unsigned(rng.below(2)));
        r.e.claimed = rng.below(4) != 0;
    }
    t.live.free_units = UnitMask(rng.below(8));
    if (rng.below(10) < 7) {
        t.pinfo.valid = true;
        t.pinfo.w = WarpId(rng.below(n));
        t.pinfo.unit = unit_classes[rng.below(3)];
        t.pinfo.mask = LaneMask(rng.below(8));
    }
    unsigned pool = unsigned(rng.below(2));
    for (WarpId w = WarpId(pool); w < n; w += 2)
        t.pool.insert(w);
    t.use_pool = rng.below(2);
    t.last = WarpId(rng.below(n));
    t.have_last = rng.below(2);
    return t;
}

/** The policy loops the scans replace, over candidates @p dom. */
std::optional<Cand>
refPrimary(SchedPolicyKind kind, const Trial &t,
           const std::vector<WarpId> &dom, bool check_group, u64 *sync)
{
    const Rows &rows = t.rows;
    auto ready = [&](WarpId w) {
        return rows.probe(w, 0, check_group, t.live.free_units, sync);
    };
    std::optional<Cand> best;
    u64 best_seq = ~u64(0);
    switch (kind) {
      case SchedPolicyKind::RoundRobin: {
        WarpId cursor = WarpId((t.last + 1) % rows.size());
        for (int pass = 0; pass < 2; ++pass) {
            for (WarpId w : dom) {
                if ((pass == 0) != (w >= cursor))
                    continue;
                if (ready(w))
                    return Cand{w, 0};
            }
        }
        return std::nullopt;
      }
      case SchedPolicyKind::GreedyThenOldest: {
        std::optional<Cand> greedy;
        for (WarpId w : dom) {
            if (!ready(w))
                continue;
            u64 seq = rows.entry(w, 0).seq;
            if (t.have_last && w == t.last)
                greedy = Cand{w, 0};
            if (seq < best_seq) {
                best_seq = seq;
                best = Cand{w, 0};
            }
        }
        return greedy ? greedy : best;
      }
      case SchedPolicyKind::MinPc: {
        Pc best_pc = invalid_pc;
        for (WarpId w : dom) {
            if (!ready(w))
                continue;
            const IBufEntry &e = rows.entry(w, 0);
            if (!best || e.pc < best_pc ||
                (e.pc == best_pc && e.seq < best_seq)) {
                best_pc = e.pc;
                best_seq = e.seq;
                best = Cand{w, 0};
            }
        }
        return best;
      }
      case SchedPolicyKind::OldestFirst:
        break;
    }
    for (WarpId w : dom) {
        if (ready(w) && rows.entry(w, 0).seq < best_seq) {
            best_seq = rows.entry(w, 0).seq;
            best = Cand{w, 0};
        }
    }
    return best;
}

/** SBI's secondary loop: oldest ready CPC2 entry. */
std::optional<Cand>
refSecondary(const Trial &t, bool *row_out, u64 *sync)
{
    std::optional<Cand> best;
    u64 best_seq = ~u64(0);
    *row_out = false;
    for (WarpId w = 0; w < t.rows.size(); ++w) {
        if (!t.rows.probe(w, 1, false, t.live.free_units, sync))
            continue;
        const IBufEntry &e = t.rows.entry(w, 1);
        bool row = t.pinfo.valid && w == t.pinfo.w &&
                   e.unit == t.pinfo.unit && e.unit != UnitClass::LSU;
        if (!row && !(t.live.free_units & unitBit(e.unit)))
            continue;
        if (e.seq < best_seq) {
            best_seq = e.seq;
            best = Cand{w, 1};
            *row_out = row;
        }
    }
    return best;
}

/** SBI's fallback loop: oldest ready CPC1 entry of another warp. */
std::optional<Cand>
refFallback(const Trial &t, u64 *sync)
{
    std::optional<Cand> best;
    u64 best_seq = ~u64(0);
    for (WarpId w = 0; w < t.rows.size(); ++w) {
        if (t.pinfo.valid && w == t.pinfo.w)
            continue;
        if (!t.rows.probe(w, 0, true, t.live.free_units, sync))
            continue;
        if (t.rows.entry(w, 0).seq < best_seq) {
            best_seq = t.rows.entry(w, 0).seq;
            best = Cand{w, 0};
        }
    }
    return best;
}

/** SWI's substitute loop: best fit, slot-major, RNG tie-break. */
std::optional<Cand>
refSubstitute(const Trial &t, bool sbi, Rng &rng, u64 *sync)
{
    std::optional<Cand> best;
    unsigned best_count = 0;
    unsigned ties = 0;
    for (unsigned slot = 0; slot < (sbi ? 2u : 1u); ++slot) {
        for (WarpId w = 0; w < t.rows.size(); ++w) {
            if (!t.rows.probe(w, slot, true, t.live.free_units, sync))
                continue;
            unsigned count = t.rows.entry(w, slot).mask.count();
            if (!best || count > best_count) {
                best = Cand{w, slot};
                best_count = count;
                ties = 1;
            } else if (count == best_count) {
                ++ties;
                if (rng.below(ties) == 0)
                    best = Cand{w, slot};
            }
        }
    }
    return best;
}

/** One gathered mask-lookup candidate. */
struct GatheredCandidate
{
    Cand c;
    LaneMask mask;
    bool same_unit;       //!< may share the primary's row
    bool other_unit_free; //!< its class has a free group
};

/**
 * SWI's mask lookup as a gather and then a pick: the warp-major
 * candidate loop collects every probed-ready entry but the primary
 * context's own, and the pick walks the ones in the primary's set
 * (w % sets) with an inclusion test, a popcount and a reservoir
 * tie-break drawn from @p rng.
 */
std::optional<Cand>
refLookup(const Trial &t, bool sbi, unsigned sets, Rng &rng,
          bool *row_out, u64 *sync)
{
    std::vector<GatheredCandidate> cands;
    bool shareable = t.pinfo.unit != UnitClass::LSU;
    for (WarpId w = 0; w < t.rows.size(); ++w) {
        for (unsigned slot = 0; slot < 2; ++slot) {
            if (slot == 1 && !sbi)
                continue;
            if (slot == 0 && w == t.pinfo.w)
                continue;
            if (!t.rows.probe(w, slot, false, t.live.free_units, sync))
                continue;
            const IBufEntry &e = t.rows.entry(w, slot);
            cands.push_back(
                {Cand{w, slot}, e.mask,
                 shareable && e.unit == t.pinfo.unit,
                 (t.live.free_units & unitBit(e.unit)) != 0});
        }
    }

    const LaneMask free = ~t.pinfo.mask;
    std::optional<size_t> best;
    unsigned best_count = 0, ties = 0;
    for (size_t i = 0; i < cands.size(); ++i) {
        const GatheredCandidate &c = cands[i];
        if (t.pinfo.w % sets != c.c.w % sets)
            continue;
        bool fits_row = c.same_unit && c.mask.subsetOf(free);
        if (!fits_row && !c.other_unit_free)
            continue;
        unsigned count = c.mask.count();
        if (!best || count > best_count) {
            best = i;
            best_count = count;
            ties = 1;
        } else if (count == best_count) {
            ++ties;
            if (rng.below(ties) == 0)
                best = i;
        }
    }
    *row_out = best && cands[*best].same_unit &&
               cands[*best].mask.subsetOf(free);
    if (!best)
        return std::nullopt;
    return cands[*best].c;
}

void
expectSame(const std::optional<Cand> &got, const std::optional<Cand> &want,
           const char *what)
{
    ASSERT_EQ(got.has_value(), want.has_value()) << what;
    if (want) {
        EXPECT_EQ(got->w, want->w) << what;
        EXPECT_EQ(got->slot, want->slot) << what;
    }
}

TEST(IssueScans, MatchProbeEveryCandidateLoops)
{
    Rng rng(2024);
    const SchedPolicyKind kinds[] = {
        SchedPolicyKind::OldestFirst, SchedPolicyKind::RoundRobin,
        SchedPolicyKind::GreedyThenOldest, SchedPolicyKind::MinPc};
    unsigned picked = 0, counted = 0, wrapped = 0;
    unsigned looked_up = 0, shared_row = 0, tie_drawn = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        Trial t = randomTrial(rng);
        const unsigned n = t.rows.size();
        SCOPED_TRACE("trial " + std::to_string(trial) + ", " +
                     std::to_string(n) + " warps");
        const IssueTable &table = t.rows.table();
        IssueScans scans(n);

        // Every policy, over every warp or one pool, with and
        // without the group check.
        std::vector<WarpId> dom;
        for (WarpId w = 0; w < n; ++w) {
            if (!t.use_pool || t.pool.contains(w))
                dom.push_back(w);
        }
        for (SchedPolicyKind kind : kinds) {
            SchedPolicy p(kind, n);
            if (t.have_last || kind == SchedPolicyKind::RoundRobin)
                p.notifyIssued(Cand{t.last, 0});
            for (bool check_group : {false, true}) {
                u64 got_sync = 0, want_sync = 0;
                auto got = scans.primary(table, t.live, p,
                                         t.use_pool ? &t.pool : nullptr,
                                         check_group, &got_sync);
                auto want = refPrimary(kind, t, dom, check_group,
                                       &want_sync);
                expectSame(got, want, schedPolicyName(kind));
                EXPECT_EQ(got_sync, want_sync) << schedPolicyName(kind);
                picked += want.has_value();
                counted += want_sync != 0;
                wrapped += kind == SchedPolicyKind::RoundRobin && want &&
                           want->w < (t.last + 1) % n;
            }
        }

        // SBI's secondary and its fallback.
        {
            u64 got_sync = 0, want_sync = 0;
            bool got_row = false, want_row = false;
            auto got =
                scans.secondary(table, t.live, t.pinfo, &got_row, &got_sync);
            auto want = refSecondary(t, &want_row, &want_sync);
            expectSame(got, want, "secondary");
            EXPECT_EQ(got_row, want_row) << "secondary";
            EXPECT_EQ(got_sync, want_sync) << "secondary";

            got_sync = want_sync = 0;
            expectSame(scans.fallback(table, t.live, t.pinfo, &got_sync),
                       refFallback(t, &want_sync), "fallback");
            EXPECT_EQ(got_sync, want_sync) << "fallback";
        }

        // SWI's substitute and mask lookup, with and without SBI's
        // CPC2 slots. The lookup and its reference draw ties from
        // identically seeded streams: the next draw of each must
        // agree, or a tie drew a different number of times.
        for (bool sbi : {false, true}) {
            Rng got_rng{u64(trial)}, want_rng{u64(trial)};
            u64 got_sync = 0, want_sync = 0;
            expectSame(scans.substitute(table, t.live, sbi, got_rng,
                                        &got_sync),
                       refSubstitute(t, sbi, want_rng, &want_sync),
                       "substitute");
            EXPECT_EQ(got_sync, want_sync) << "substitute";
            EXPECT_EQ(got_rng.next(), want_rng.next()) << "substitute";

            if (!t.pinfo.valid)
                continue;
            const unsigned sets = 1 + unsigned(rng.below(std::min(n, 4u)));
            const u64 seed = 2 * u64(trial) + sbi;
            pipeline::MaskLookup lookup(n, sets, seed);
            Rng ref_rng(seed);
            bool got_row = false, want_row = false;
            got_sync = want_sync = 0;
            auto got = scans.lookup(table, t.live, t.pinfo, sbi, lookup,
                                    &got_row, &got_sync);
            auto want =
                refLookup(t, sbi, sets, ref_rng, &want_row, &want_sync);
            expectSame(got, want, "lookup");
            EXPECT_EQ(got_row, want_row) << "lookup";
            EXPECT_EQ(got_sync, want_sync) << "lookup";
            const u64 want_next = ref_rng.next();
            EXPECT_EQ(lookup.rng().next(), want_next) << "lookup";
            looked_up += want.has_value();
            shared_row += want_row;
            tie_drawn += want_next != Rng(seed).next();
        }
    }
    // The sweep reaches the interesting cases.
    EXPECT_GT(picked, 5000u);
    EXPECT_GT(counted, 5000u);
    EXPECT_GT(wrapped, 200u);
    EXPECT_GT(looked_up, 1000u);
    EXPECT_GT(shared_row, 200u);
    EXPECT_GT(tie_drawn, 200u);
}

} // namespace
