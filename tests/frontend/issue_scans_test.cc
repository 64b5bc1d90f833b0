/**
 * @file
 * The SWI mask-inclusion lookup against a scalar reference: the
 * one-pass lookup (frontend::IssueScans::lookup) must replay the
 * per-candidate loop exactly — same picks, same row sharing, same
 * SYNC counts and the same RNG consumption.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hh"
#include "frontend/front_end.hh"
#include "pipeline/mask_lookup.hh"

namespace siwi {
namespace {

using frontend::Cand;
using frontend::SlotState;
using isa::UnitClass;

/**
 * This reference reimplements the per-candidate loop with an
 * identically seeded RNG and cross-checks long randomized runs.
 * One lookup and one reference stream live across every round, so
 * any divergence in the draw sequence desynchronizes every later
 * tie-break, and a single run covers thousands of decisions.
 */
TEST(IssueScans, LookupMatchesScalarReference)
{
    const unsigned num_warps = 16;
    const UnitClass classes[] = {UnitClass::MAD, UnitClass::SFU,
                                 UnitClass::LSU};
    for (unsigned sets : {1u, 2u, 4u}) {
        for (bool sbi : {false, true}) {
            SCOPED_TRACE("sets " + std::to_string(sets) +
                         (sbi ? ", SBI" : ""));
            pipeline::MaskLookup lookup(num_warps, sets, 77);
            Rng ref_rng(77);
            Rng gen(500 + 2 * sets + sbi);
            frontend::IssueScans scans(num_warps);
            frontend::IssueTable table(num_warps);
            std::vector<pipeline::IBufEntry> entries(2 * num_warps);
            unsigned picked = 0, shared_row = 0, tie_draws = 0;
            for (int round = 0; round < 3000; ++round) {
                frontend::PrimaryIssueInfo pinfo;
                pinfo.valid = true;
                pinfo.w = WarpId(gen.below(num_warps));
                const u64 free_bits = gen.next();
                pinfo.mask = LaneMask(~free_bits);
                pinfo.unit = classes[gen.below(3)];
                const LaneMask free(free_bits);
                frontend::ScanLive live;
                for (UnitClass cls : classes) {
                    if (gen.below(4) == 0)
                        live.free_units |= frontend::unitBit(cls);
                }

                // Both slots of every warp; slot 1 only counts on
                // SBI machines.
                std::vector<SlotState> state(2 * num_warps);
                for (WarpId w = 0; w < num_warps; ++w) {
                    for (unsigned slot = 0; slot < 2; ++slot) {
                        pipeline::IBufEntry &e =
                            entries[2 * w + slot];
                        e = pipeline::IBufEntry{};
                        e.valid = true;
                        // Small popcount range provokes count ties,
                        // which is what exercises the RNG stream;
                        // half the masks fit the free lanes.
                        u64 m = gen.next() & gen.next() & gen.next();
                        if (gen.below(2) == 0)
                            m &= free_bits;
                        e.mask = LaneMask(m);
                        e.unit = classes[gen.below(3)];
                        const unsigned roll = unsigned(gen.below(8));
                        SlotState &s = state[2 * w + slot];
                        s = roll < 5   ? SlotState::Issuable
                            : roll < 6 ? SlotState::SyncGated
                                       : SlotState::Blocked;
                        const bool has_entry = roll != 7;
                        table.set(w, slot,
                                  {has_entry ? &e : nullptr, s});
                        if (!has_entry)
                            s = SlotState::Blocked;
                    }
                }

                // Scalar reference: probe every candidate in
                // warp-major order, with its own RNG stream.
                std::optional<Cand> ref;
                bool ref_row = false;
                unsigned best_count = 0, ties = 0;
                u64 ref_sync = 0;
                const bool shareable = pinfo.unit != UnitClass::LSU;
                for (WarpId w = 0; w < num_warps; ++w) {
                    for (unsigned slot = 0; slot < (sbi ? 2u : 1u);
                         ++slot) {
                        if (slot == 0 && w == pinfo.w)
                            continue;
                        const SlotState s = state[2 * w + slot];
                        if (s == SlotState::SyncGated)
                            ++ref_sync;
                        if (s != SlotState::Issuable ||
                            pinfo.w % sets != w % sets)
                            continue;
                        const pipeline::IBufEntry &e =
                            entries[2 * w + slot];
                        const bool fits_row =
                            shareable && e.unit == pinfo.unit &&
                            e.mask.subsetOf(free);
                        if (!fits_row &&
                            !(live.free_units & frontend::unitBit(e.unit)))
                            continue;
                        const unsigned count = e.mask.count();
                        if (!ref || count > best_count) {
                            ref = Cand{w, slot};
                            ref_row = fits_row;
                            best_count = count;
                            ties = 1;
                        } else if (count == best_count) {
                            ++ties;
                            ++tie_draws;
                            if (ref_rng.below(ties) == 0) {
                                ref = Cand{w, slot};
                                ref_row = fits_row;
                            }
                        }
                    }
                }

                bool row = false;
                u64 sync = 0;
                const std::optional<Cand> got = scans.lookup(
                    table, live, pinfo, sbi, lookup, &row, &sync);
                ASSERT_EQ(got.has_value(), ref.has_value())
                    << "round " << round;
                if (ref) {
                    EXPECT_EQ(got->w, ref->w) << "round " << round;
                    EXPECT_EQ(got->slot, ref->slot) << "round " << round;
                }
                EXPECT_EQ(row, ref_row) << "round " << round;
                EXPECT_EQ(sync, ref_sync) << "round " << round;
                picked += ref.has_value();
                shared_row += ref_row;
            }
            // Both streams drew the same number of times.
            EXPECT_EQ(lookup.rng().next(), ref_rng.next());
            // The sweep reaches the interesting cases.
            EXPECT_GT(picked, 1000u);
            EXPECT_GT(shared_row, 300u);
            EXPECT_GT(tie_draws, 25u);
        }
    }
}

} // namespace
} // namespace siwi
