/**
 * @file
 * The issue table: what the issue stage selects from.
 *
 * For every warp and context slot the SM keeps one row derived
 * from warp-local state alone — the slot's context view, its fresh
 * instruction-buffer entry, its SYNC gate and its scoreboard
 * hazards — plus two sets per slot that say what a probe of that
 * row finds: issuable, or SYNC-gated (a probe counts one
 * sync_suspensions). A row without an entry, or with a Blocked one,
 * is in neither set. The candidate scans (front_end.hh) combine
 * those sets word-wise with the live inputs — free execution groups
 * and the entry claimed by the cascade register — instead of
 * probing each candidate.
 */

#ifndef SIWI_FRONTEND_ISSUE_TABLE_HH
#define SIWI_FRONTEND_ISSUE_TABLE_HH

#include <array>
#include <vector>

#include "common/lane_mask.hh"
#include "common/types.hh"
#include "isa/opcode.hh"
#include "pipeline/ibuffer.hh"
#include "pipeline/warp_set.hh"

namespace siwi::frontend {

/**
 * A scheduling candidate: warp + context slot (0 = primary /
 * CPC1, 1 = secondary / CPC2). The instruction-buffer entry is
 * resolved through the context id, so HCT re-sorting does not
 * orphan buffered instructions.
 */
struct Cand
{
    WarpId w;
    unsigned slot;
};

/** Scheduling view of one warp context slot. */
struct CtxView
{
    bool valid = false; //!< exists and is schedulable
    u32 id = 0;
    Pc pc = invalid_pc;
    LaneMask mask;
    u32 version = 0;

    bool operator==(const CtxView &) const = default;
};

/** One warp's views of its two context slots. */
using CtxViews = std::array<CtxView, 2>;

/** What warp-local state says about issuing one context slot. */
enum class SlotState : u8 {
    Blocked,   //!< no fresh entry, or a scoreboard hazard
    SyncGated, //!< SYNC-suspended: every probe counts
    Issuable,  //!< issuable, given a free execution group
};

/** One row: the slot's fresh entry (null: none) and its state. */
struct SlotRow
{
    pipeline::IBufEntry *entry = nullptr;
    SlotState state = SlotState::Blocked;
};

/** One bit per execution-group class (unitBit). */
using UnitMask = unsigned;

inline constexpr UnitMask
unitBit(isa::UnitClass cls)
{
    return UnitMask(1) << unsigned(cls);
}

/**
 * Every class an entry can issue to (CTRL issues to MAD, so no
 * row holds it).
 */
inline constexpr UnitMask all_units = unitBit(isa::UnitClass::MAD) |
                                      unitBit(isa::UnitClass::SFU) |
                                      unitBit(isa::UnitClass::LSU);

/**
 * Per-slot rows and ready sets, indexed [slot][warp], and each
 * warp's context views. The SM stores a warp's views and the rows
 * derived from them whenever their inputs may have moved (set()
 * stores one row); the front-end only reads.
 */
struct IssueTable
{
    explicit IssueTable(unsigned num_warps = 0)
        : views(num_warps)
    {
        for (unsigned s = 0; s < 2; ++s) {
            issuable[s].reset(num_warps);
            sync_gated[s].reset(num_warps);
            entry[s].assign(num_warps, nullptr);
            seq[s].assign(num_warps, 0);
            unit[s].assign(num_warps, isa::UnitClass::MAD);
        }
    }

    /** Store row (w, slot); seq and unit are copied from the entry. */
    void set(WarpId w, unsigned slot, const SlotRow &v)
    {
        entry[slot][w] = v.entry;
        if (v.entry) {
            seq[slot][w] = v.entry->seq;
            unit[slot][w] = v.entry->unit;
        }
        if (v.entry && v.state == SlotState::Issuable)
            issuable[slot].insert(w);
        else
            issuable[slot].erase(w);
        if (v.entry && v.state == SlotState::SyncGated)
            sync_gated[slot].insert(w);
        else
            sync_gated[slot].erase(w);
    }

    /** Row (w, slot) as stored. */
    SlotRow row(WarpId w, unsigned slot) const
    {
        SlotRow v;
        v.entry = entry[slot][w];
        if (issuable[slot].contains(w))
            v.state = SlotState::Issuable;
        else if (sync_gated[slot].contains(w))
            v.state = SlotState::SyncGated;
        return v;
    }

    /** Fresh entry, no hazard, not SYNC-gated. */
    pipeline::WarpSet issuable[2];
    /** Fresh entry behind a closed SYNC gate. */
    pipeline::WarpSet sync_gated[2];
    /** The slot's fresh entry, or null. */
    std::vector<pipeline::IBufEntry *> entry[2];
    /** Its fetch sequence number (age), when entry is set. */
    std::vector<u64> seq[2];
    /** Its execution-group class, when entry is set. */
    std::vector<isa::UnitClass> unit[2];
    /**
     * Each warp's context views, indexed [warp][slot]: what the
     * rows were derived from, and what fetch, issue, sleep
     * evaluation and the cascade register read instead of deriving
     * a view again.
     */
    std::vector<CtxViews> views;
};

/**
 * One scan's candidates in one context slot: the warps a probe
 * would find ready (issuable, unclaimed, with a free group when the
 * scan needs one), and those whose probe would count one
 * sync_suspensions. Filled from an IssueTable and narrowed by the
 * scan's live inputs.
 */
struct SlotScan
{
    pipeline::WarpSet ready;
    pipeline::WarpSet gated;

    /** Leave @p w out of the scan: its probe is skipped. */
    void drop(WarpId w)
    {
        ready.erase(w);
        gated.erase(w);
    }
};

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_ISSUE_TABLE_HH
