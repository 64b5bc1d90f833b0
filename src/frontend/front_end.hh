/**
 * @file
 * The SM front-end layer: instruction select + issue, decoupled
 * from the SM's warp/block/memory state.
 *
 * The paper's whole contribution lives here — stack vs.
 * thread-frontier scheduling (§3), SBI's dual issue over CPC1 and
 * CPC2 (§3.3), and SWI's cascaded mask-fit secondary scheduler
 * (§4) — so the front-end is a first-class layer: a FrontEnd
 * object owns the per-cycle select/issue decision and its private
 * scheduler state (cascade register, mask-inclusion lookup,
 * tie-break RNG), while the hosting SM keeps warp contexts,
 * blocks, barriers, events and the memory pipeline, exposed
 * through the narrow FrontEndHost interface.
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
 * Primary-candidate ordering is delegated to a SchedPolicy
 * strategy (see sched_policy.hh), selected via
 * SMConfig::sched_policy; oldest-first reproduces the paper
 * bit-exactly.
 */

#ifndef SIWI_FRONTEND_FRONT_END_HH
#define SIWI_FRONTEND_FRONT_END_HH

#include <memory>
#include <optional>
#include <vector>

#include "common/lane_mask.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "core/stats.hh"
#include "frontend/sched_policy.hh"
#include "isa/opcode.hh"
#include "pipeline/ibuffer.hh"
#include "pipeline/mask_lookup.hh"
#include "pipeline/warp_set.hh"

namespace siwi::pipeline {
class ExecGroup;
struct SMConfig;
} // namespace siwi::pipeline

namespace siwi::frontend {

/** Scheduling view of one warp context slot. */
struct CtxView
{
    bool valid = false; //!< exists and is schedulable
    u32 id = 0;
    Pc pc = invalid_pc;
    LaneMask mask;
    u32 version = 0;
};

/** Row occupancy info of the primary issue this cycle. */
struct PrimaryIssueInfo
{
    bool valid = false;
    WarpId w = 0;
    u32 ctx_id = 0;
    pipeline::ExecGroup *group = nullptr;
    LaneMask mask;
    isa::UnitClass unit = isa::UnitClass::MAD;
};

/**
 * What a front-end needs from its hosting SM: candidate
 * visibility (context views, buffered entries, readiness) and the
 * issue primitive. The host keeps ownership of warps, the
 * instruction buffer, the scoreboard and the execution groups;
 * the front-end only decides *what* to issue.
 */
class FrontEndHost
{
  public:
    virtual const pipeline::SMConfig &config() const = 0;
    virtual Cycle now() const = 0;
    virtual unsigned numWarps() const = 0;

    /** Scheduling view of context slot (w, slot). */
    virtual CtxView ctxView(WarpId w, unsigned slot) const = 0;

    /** Fresh buffered entry of the context in (w, slot), or null. */
    virtual const pipeline::IBufEntry *entryFor(
        WarpId w, unsigned slot) const = 0;
    virtual pipeline::IBufEntry *entryFor(WarpId w,
                                          unsigned slot) = 0;

    /** Valid buffered entry of context @p ctx_id, or null. */
    virtual pipeline::IBufEntry *findCtx(WarpId w, u32 ctx_id) = 0;

    /**
     * May (w, slot) issue this cycle? Probing a SYNC-gated entry
     * counts one sync_suspensions attempt, so callers probe in a
     * fixed order. On the SM host a probe of an unchanged warp is
     * O(1): the warp-local part of the verdict is cached per warp
     * mutation generation, and only the claimed flag and the
     * execution groups are read live.
     */
    virtual bool ready(WarpId w, unsigned slot,
                       bool check_group) const = 0;

    /**
     * Issue candidates of context slot @p slot: a superset of the
     * warps whose slot-@p slot probe can return true or count a
     * SYNC suspension. Every warp outside it has no fresh entry in
     * that slot, or a Blocked one, so ready() on it would return
     * false without side effects; on the SM host it holds only
     * active warps that are not parked. A candidate scan walks this
     * set alone and sees the same ready candidates, in the same
     * (ascending) order, as a scan of every warp. The set can grow
     * mid-cycle (a barrier release touches warps), so scans read it
     * where they run, never cached across scans.
     */
    virtual const pipeline::WarpSet &issueCandidates(
        unsigned slot) const = 0;

    /**
     * Clear @p e's claimed flag without issuing it (a stale cascade
     * pick is dropped). @p e belongs to warp @p w, which the host
     * must re-check for sleep.
     */
    virtual void dropClaim(WarpId w, pipeline::IBufEntry &e) = 0;

    /**
     * A free execution group of class @p cls (an entry's decoded
     * IBufEntry::unit), or null.
     */
    virtual pipeline::ExecGroup *freeGroup(isa::UnitClass cls) = 0;

    /**
     * Issue the instruction buffered for context slot (w, slot).
     * @param primary row-sharing context, null for primary issues
     * @param row_share issue onto the primary's row
     * @return true on success
     */
    virtual bool issueCand(WarpId w, unsigned slot, bool secondary,
                           PrimaryIssueInfo *primary,
                           bool row_share) = 0;

    /** Primary issued this cycle (filled by issueCand). */
    virtual const PrimaryIssueInfo &lastPrimary() const = 0;

    /** Reset lastPrimary() at the top of the issue stage. */
    virtual void clearLastPrimary() = 0;

    /** Mutable statistics (front-end counters). */
    virtual core::SimStats &stats() = 0;

  protected:
    ~FrontEndHost() = default;
};

/**
 * One SM front-end: selects and issues instructions for one cycle.
 *
 * The candidate domains (per-pool warp lists, the SBI CPC2 slots)
 * are rebuilt each select from the host's issue-candidate sets —
 * the machine geometry fixes only their shape. The scratch vectors
 * are reused, so the per-cycle hot loop never allocates in steady
 * state, and it visits only warps that may have something to issue.
 */
class FrontEnd
{
  public:
    explicit FrontEnd(FrontEndHost &host);

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

  private:
    /** Primary pick parked between select and issue (SWI). */
    struct CascadeReg
    {
        bool valid = false;
        WarpId w = 0;
        u32 ctx_id = 0;
        u32 ctx_version = 0;
    };

    /**
     * Policy-ordered pick over @p cands by @p pool's scheduler.
     * Pure selection: the caller reports the outcome through
     * notifyIssued() only when the pick actually issues, so
     * stateful policies (the RR cursor, GTO's last warp) never
     * advance past a warp that was denied by a structural stall.
     */
    std::optional<Cand> selectPrimary(unsigned pool,
                                      std::span<const Cand> cands,
                                      bool check_group);

    /** Report a successful primary issue to @p pool's policy. */
    void notifyIssued(unsigned pool, const Cand &c)
    {
        policy_[pool]->notifyIssued(c);
    }

    /**
     * The simple (1-cycle scheduler) issue stage of the Fermi
     * baseline and the non-cascaded interweave machines: two
     * alternating pools, or one pool plus the SBI secondary.
     * @return true when any instruction issued
     */
    bool issueSimple();

    /**
     * Oldest ready CPC2 entry, row-shared when possible (§3.3).
     * @return true when an instruction issued
     */
    bool issueSecondarySimple(const PrimaryIssueInfo &pinfo);

    /**
     * Primary candidate domain of @p pool right now: the slot-0
     * issue candidates of the pool, ascending — the same
     * candidates a full-warp scan offers, minus provably unready
     * ones. Returns a span over reused scratch; valid until the
     * next call for the same pool.
     */
    std::span<const Cand> poolDomain(unsigned pool);

    /** The cascaded (SWI) issue stage. */
    bool issueCascaded();
    std::optional<Cand> pickSecondaryCascaded(
        const PrimaryIssueInfo &pinfo, bool *row_share_out);
    std::optional<Cand> pickSubstitute();

    FrontEndHost &host_;
    /**
     * One policy instance per scheduler pool: pooled machines
     * model two independent schedulers, so stateful policies (RR
     * cursor, GTO last-warp) must not leak across pools.
     * Single-pool machines only use index 0.
     */
    std::unique_ptr<SchedPolicy> policy_[2];
    /** Reusable poolDomain() scratch (hot loop: no allocation). */
    std::vector<Cand> pool_scratch_[2];

    // Cascaded-scheduler state; idle on non-cascaded machines.
    pipeline::MaskLookup lookup_;
    Rng rng_;
    CascadeReg cascade_;
    // Reusable per-cycle scratch (hot loop: no allocation).
    std::vector<pipeline::LookupCandidate> lookup_scratch_;
    std::vector<Cand> cand_scratch_;
    pipeline::WarpSet either_slot_; //!< union of both slots' sets
};

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_FRONT_END_HH
