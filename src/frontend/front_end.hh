/**
 * @file
 * The SM front-end: fetch arbitration and instruction select +
 * issue, one module over the SM's warp/block/memory state.
 *
 * The paper's whole contribution lives here — stack vs.
 * thread-frontier scheduling (§3), SBI's dual issue over CPC1 and
 * CPC2 (§3.3), and SWI's cascaded mask-fit secondary scheduler
 * (§4) — so the front-end is a first-class layer: a FrontEnd
 * object owns the per-cycle fetch and select/issue decisions and
 * their private state (round-robin fetch cursors, this cycle's
 * primary issue, cascade register, mask-inclusion lookup,
 * tie-break RNG), while its SM (a friend) keeps warp contexts,
 * blocks, barriers, events and the memory pipeline, and performs
 * each fetch and issue the front-end picks.
 *
 * One FrontEnd class covers the paper's five machines. Its issue
 * stage has two shapes, chosen by SMConfig::swi:
 *
 *   simple     one-cycle scheduling: the Fermi baseline's and
 *              TF64's two alternating pools, or SBI's primary over
 *              CPC1 plus its secondary front-end over CPC2.
 *   cascaded   SWI and SBI+SWI: the primary pick is parked in the
 *              cascade register for a cycle while the mask-fit
 *              secondary scheduler (mask-inclusion lookup, lane
 *              shuffle) fills the primary's free lanes. That
 *              register is Table 2's 2-cycle scheduler.
 *
 * Each primary scheduler orders its candidates by a SchedPolicy
 * value (see sched_policy.hh) of SMConfig::sched_policy's kind;
 * oldest-first reproduces the paper bit-exactly.
 */

#ifndef SIWI_FRONTEND_FRONT_END_HH
#define SIWI_FRONTEND_FRONT_END_HH

#include <optional>

#include "common/lane_mask.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "frontend/issue_table.hh"
#include "frontend/sched_policy.hh"
#include "isa/opcode.hh"
#include "pipeline/mask_lookup.hh"
#include "pipeline/warp_set.hh"

namespace siwi::pipeline {
class ExecGroup;
class SM;
struct SMConfig;
} // namespace siwi::pipeline

namespace siwi::frontend {

/** Row occupancy info of the primary issue this cycle. */
struct PrimaryIssueInfo
{
    bool valid = false;
    WarpId w = 0;
    pipeline::ExecGroup *group = nullptr;
    LaneMask mask;
    isa::UnitClass unit = isa::UnitClass::MAD;
};

/** The live inputs of a candidate scan besides the issue table. */
struct ScanLive
{
    /** Classes with a free execution group. */
    UnitMask free_units = 0;
    /**
     * Warp whose entry may be parked in the cascade register
     * (claimed). A scan leaves that warp out of the slot whose row
     * holds the claimed entry, uncounted, as a probe of it would.
     */
    std::optional<WarpId> cascade_w;
};

/**
 * The issue stage's candidate scans over an IssueTable.
 *
 * Each scan picks what probing every candidate in a fixed order
 * would pick — ascending warps, slot 0 before slot 1 or warp-major,
 * the policy's own order for the primary — so the RR cursor,
 * substitute()'s RNG draws and the mask lookup's tie-breaks see the
 * same candidates in the same order. Each adds to @p sync one count
 * per SYNC-gated, unclaimed candidate that order visits. The
 * per-slot scans are reused scratch: no scan allocates.
 */
class IssueScans
{
  public:
    explicit IssueScans(unsigned num_warps);

    /**
     * @p policy's primary pick among slot-0 warps of @p pool (every
     * warp when null).
     * @param check_group also require a free execution group
     */
    std::optional<Cand> primary(const IssueTable &t,
                                const ScanLive &live,
                                const SchedPolicy &policy,
                                const pipeline::WarpSet *pool,
                                bool check_group, u64 *sync);

    /**
     * SBI's secondary front-end (§3.3): the oldest issuable CPC2
     * entry. The primary's warp may share the primary's row (their
     * masks are disjoint by construction; *row_share tells); any
     * other candidate needs a free execution group.
     */
    std::optional<Cand> secondary(const IssueTable &t,
                                  const ScanLive &live,
                                  const PrimaryIssueInfo &pinfo,
                                  bool *row_share, u64 *sync);

    /**
     * SBI's fallback when no CPC2 entry issues (docs/DESIGN.md
     * interpretation note): the oldest CPC1 entry of another warp
     * that has a free execution group.
     */
    std::optional<Cand> fallback(const IssueTable &t,
                                 const ScanLive &live,
                                 const PrimaryIssueInfo &pinfo,
                                 u64 *sync);

    /**
     * SWI's substitute for an absent primary (§4): best fit (most
     * active lanes) over every CPC1 entry, then every CPC2 entry on
     * SBI machines, with a free execution group; ties draw from
     * @p rng.
     */
    std::optional<Cand> substitute(const IssueTable &t,
                                   const ScanLive &live, bool sbi,
                                   Rng &rng, u64 *sync);

    /**
     * SWI's mask-inclusion lookup (§4) around primary @p pinfo, in
     * one pass: among the issuable entries of the primary's set in
     * @p sets but the primary context's own (CPC2 ones too on SBI
     * machines), each that fits the primary's free lanes on its row
     * or has a free group of its own; best fit (most active lanes),
     * ties drawn from @p sets' RNG in warp-major order.
     * @param row_share set when the pick fits the primary's row
     */
    std::optional<Cand> lookup(const IssueTable &t, const ScanLive &live,
                               const PrimaryIssueInfo &pinfo, bool sbi,
                               pipeline::MaskLookup &sets,
                               bool *row_share, u64 *sync);

  private:
    /**
     * Slot @p slot's candidates: its issuable and SYNC-gated warps,
     * within @p domain when given, without the claimed entry, and
     * with check_group only warps whose class has a free group.
     */
    SlotScan &scan(const IssueTable &t, const ScanLive &live,
                   unsigned slot, const pipeline::WarpSet *domain,
                   bool check_group);

    SlotScan slot_[2];
    pipeline::WarpSet either_slot_; //!< the lookup's candidate warps
};

/**
 * One SM front-end: decides, each cycle, what to issue and what to
 * fetch, and has its SM carry both out.
 *
 * Every scan reads the SM's issue table where it runs and combines
 * its per-slot sets word-wise (IssueScans), so the per-cycle hot
 * loop never allocates and visits only warps with something to
 * issue or a SYNC gate to count; fetch walks the SM's fetch sets.
 */
class FrontEnd
{
  public:
    /**
     * The front-end of @p sm, built from @p cfg (read here only:
     * the machine shape never changes after construction).
     */
    FrontEnd(pipeline::SM &sm, const pipeline::SMConfig &cfg);

    /**
     * Select + issue for one cycle (the SM issue stage).
     * @return true when the front-end made progress or mutated any
     *         state: an issue, a cascade-register park or
     *         stale-drop, or a squashed conflict. False means the
     *         cycle was a pure (state-free) selection pass, so an
     *         identical cycle would repeat until something else in
     *         the SM changes — the contract the event-driven
     *         cycle-skipping loop relies on.
     */
    bool issueCycle();

    /**
     * Fetch for one cycle (the SM fetch stage, after issue): each of
     * the two front-ends fetches at most one entry, for its pool's
     * warps on two-pool machines, else for CPC1 or (SBI's second
     * front-end) CPC2 contexts, with the sbi_secondary_fallback
     * retry over CPC1.
     */
    void fetchCycle();

  private:
    /** Primary pick parked between select and issue (SWI). */
    struct CascadeReg
    {
        bool valid = false;
        WarpId w = 0;
        u32 ctx_id = 0;
        u32 ctx_version = 0;
    };

    /** The scans' live inputs right now. */
    ScanLive live() const;

    /**
     * Policy-ordered pick over @p pool's slot-0 candidates by
     * @p pool's scheduler. Pure selection: issuePrimary() reports
     * the pick to the policy only when it actually issues, so
     * stateful policies (the RR cursor, GTO's last warp) never
     * advance past a warp that was denied by a structural stall.
     */
    std::optional<Cand> selectPrimary(unsigned pool, bool check_group);

    /**
     * Issue @p pool's primary pick @p c, if any, into primary_ and
     * report it to the pool's policy.
     * @return true when it issued
     */
    bool issuePrimary(unsigned pool, std::optional<Cand> c);

    /**
     * The simple (1-cycle scheduler) issue stage of the Fermi
     * baseline and the non-cascaded interweave machines: two
     * alternating pools, or one pool plus the SBI secondary.
     * @return true when any instruction issued
     */
    bool issueSimple();
    /** SBI's secondary issue and its fallback, around primary_. */
    bool issueSecondarySimple();

    /** The cascaded (SWI) issue stage. */
    bool issueCascaded();
    /**
     * May the parked pick in (cascade_.w, @p slot) issue now? Its
     * probe counts a SYNC suspension like any other.
     */
    bool cascadeReady(unsigned slot);

    /**
     * Front-end @p fe fetches for the first warp (within @p pool
     * when given) of slot @p slot's fetch set that the SM can fetch
     * for, cyclically from its cursor; true when one fetched.
     */
    bool fetchFrom(unsigned fe, unsigned slot, const pipeline::WarpSet *pool);

    pipeline::SM &sm_;
    // The machine shape (SMConfig), copied once.
    const unsigned num_warps_;
    const bool swi_;          //!< cascaded issue stage
    const bool sbi_;          //!< SBI's second front-end
    const bool two_pools_;    //!< two alternating scheduler pools
    const bool sbi_fallback_; //!< sbi_secondary_fallback
    /**
     * One policy per scheduler pool: pooled machines model two
     * independent schedulers, so the RR cursor and GTO's last warp
     * must not leak across pools. Single-pool machines only use
     * index 0.
     */
    SchedPolicy policy_[2];
    /** Each pool's warps (two-pool machines: w % 2 == pool). */
    pipeline::WarpSet pool_warps_[2];
    IssueScans scans_;
    /** The primary issued this cycle (issueCycle() clears it). */
    PrimaryIssueInfo primary_;
    /** Each front-end's round-robin fetch cursor. */
    WarpId fetch_rr_[2] = {0, 0};

    // Cascaded-scheduler state; idle on non-cascaded machines.
    pipeline::MaskLookup lookup_;
    Rng rng_;
    CascadeReg cascade_;
};

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_FRONT_END_HH
