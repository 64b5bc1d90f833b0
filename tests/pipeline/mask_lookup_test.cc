/**
 * @file
 * SWI mask-inclusion lookup tests: best-fit selection and
 * set-associative restriction (paper section 4, Figure 9), through
 * the issue stage's one-pass lookup (frontend::IssueScans::lookup).
 */

#include <gtest/gtest.h>

#include "frontend/front_end.hh"
#include "pipeline/mask_lookup.hh"

namespace siwi::pipeline {
namespace {

/** One candidate: the issuable slot-0 entry of warp @c warp. */
struct LookupCase
{
    WarpId warp;
    u64 mask;
    /** On the primary's unit (MAD), else on the SFU. */
    bool same_unit;
    /** Its unit has a free group. */
    bool other_free;
};

LookupCase
cand(WarpId w, u64 mask, bool same_unit = true,
     bool other_free = false)
{
    return {w, mask, same_unit, other_free};
}

constexpr unsigned num_warps = 16;

/**
 * The lookup around a MAD primary of warp 0 that leaves @p free
 * lanes free: the index of its pick in @p cands (ascending warps),
 * or nullopt; *row_share tells whether the pick shares the row.
 */
std::optional<size_t>
pick(MaskLookup &ml, LaneMask free, const std::vector<LookupCase> &cands,
     bool *row_share = nullptr)
{
    frontend::IssueTable table(num_warps);
    std::vector<IBufEntry> entries(cands.size());
    frontend::ScanLive live;
    for (size_t i = 0; i < cands.size(); ++i) {
        IBufEntry &e = entries[i];
        e.valid = true;
        e.mask = LaneMask(cands[i].mask);
        e.unit = cands[i].same_unit ? isa::UnitClass::MAD
                                    : isa::UnitClass::SFU;
        if (cands[i].other_free)
            live.free_units |= frontend::unitBit(e.unit);
        table.set(cands[i].warp, 0, {&e, frontend::SlotState::Issuable});
    }
    frontend::PrimaryIssueInfo pinfo;
    pinfo.valid = true;
    pinfo.w = 0;
    pinfo.mask = ~free;
    pinfo.unit = isa::UnitClass::MAD;

    frontend::IssueScans scans(num_warps);
    bool row = false;
    u64 sync = 0;
    auto c = scans.lookup(table, live, pinfo, false, ml, &row, &sync);
    if (row_share)
        *row_share = row;
    if (!c)
        return std::nullopt;
    EXPECT_EQ(c->slot, 0u);
    for (size_t i = 0; i < cands.size(); ++i) {
        if (cands[i].warp == c->w)
            return i;
    }
    ADD_FAILURE() << "picked warp " << c->w << ", not a candidate";
    return std::nullopt;
}

/** May a lookup for primary @p prim search warp @p w? */
bool
eligible(const MaskLookup &ml, WarpId prim, WarpId w)
{
    return ml.members(prim).contains(w);
}

TEST(MaskLookup, PicksFittingCandidate)
{
    MaskLookup ml(16, 1);
    std::vector<LookupCase> cands = {
        cand(1, 0xf0), // fits in ~0x0f? free = 0xf0
    };
    bool row = false;
    auto r = pick(ml, LaneMask(0xf0), cands, &row);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 0u);
    EXPECT_TRUE(row);
}

TEST(MaskLookup, RejectsOverlapping)
{
    MaskLookup ml(16, 1);
    std::vector<LookupCase> cands = {cand(1, 0x18)};
    auto r = pick(ml, LaneMask(0xf0), cands);
    EXPECT_FALSE(r.has_value());
}

TEST(MaskLookup, BestFitMaximizesOccupancy)
{
    MaskLookup ml(16, 1);
    std::vector<LookupCase> cands = {
        cand(1, 0x10), // 1 lane
        cand(2, 0x70), // 3 lanes -- best fit
        cand(3, 0x30), // 2 lanes
    };
    auto r = pick(ml, LaneMask(0xf0), cands);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 1u);
}

TEST(MaskLookup, OtherUnitBypassesMaskCheck)
{
    MaskLookup ml(16, 1);
    // Overlapping mask but a different unit group is free.
    std::vector<LookupCase> cands = {
        cand(1, 0xff, /*same_unit=*/false, /*other_free=*/true)};
    bool row = true;
    auto r = pick(ml, LaneMask(0x0f), cands, &row);
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(row);
}

TEST(MaskLookup, NoUnitNoFit)
{
    MaskLookup ml(16, 1);
    std::vector<LookupCase> cands = {
        cand(1, 0xff, false, false)};
    EXPECT_FALSE(pick(ml, LaneMask(0xff), cands).has_value());
}

TEST(MaskLookup, SetRestrictionFiltersWarps)
{
    MaskLookup ml(16, 4); // sets by warp % 4
    EXPECT_TRUE(eligible(ml, 0, 4));
    EXPECT_TRUE(eligible(ml, 0, 8));
    EXPECT_FALSE(eligible(ml, 0, 1));
    EXPECT_FALSE(eligible(ml, 3, 5));
    EXPECT_TRUE(eligible(ml, 3, 7));

    std::vector<LookupCase> cands = {
        cand(1, 0x10), // wrong set
        cand(4, 0x20), // right set
    };
    auto r = pick(ml, LaneMask(0xf0), cands);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 1u);
}

TEST(MaskLookup, FullyAssociativeSearchesAll)
{
    MaskLookup ml(16, 1);
    for (WarpId a = 0; a < 16; ++a) {
        for (WarpId b = 0; b < 16; ++b)
            EXPECT_TRUE(eligible(ml, a, b));
    }
}

TEST(MaskLookup, DirectMappedOnlySelf)
{
    MaskLookup ml(16, 16);
    EXPECT_TRUE(eligible(ml, 5, 5));
    EXPECT_FALSE(eligible(ml, 5, 6));
}

TEST(MaskLookup, TieBreakIsPseudoRandomButCovering)
{
    // Repeated equal-occupancy ties must eventually pick different
    // candidates (randomized tie-breaking, section 4).
    MaskLookup ml(16, 1, 7);
    std::vector<LookupCase> cands = {cand(1, 0x10),
                                     cand(2, 0x20)};
    bool saw0 = false, saw1 = false;
    for (int i = 0; i < 64; ++i) {
        auto r = pick(ml, LaneMask(0xf0), cands);
        ASSERT_TRUE(r.has_value());
        saw0 |= *r == 0;
        saw1 |= *r == 1;
    }
    EXPECT_TRUE(saw0);
    EXPECT_TRUE(saw1);
}

class Associativity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(Associativity, EligibleCountMatchesWays)
{
    unsigned sets = GetParam();
    MaskLookup ml(16, sets);
    unsigned eligible = 0;
    for (WarpId w = 0; w < 16; ++w) {
        EXPECT_EQ(ml.members(3).contains(w), w % sets == 3 % sets) << w;
        eligible += ml.members(3).contains(w) ? 1 : 0;
    }
    EXPECT_EQ(eligible, 16 / sets);
    EXPECT_EQ(ml.members(3).count(), 16 / sets);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Associativity,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

} // namespace
} // namespace siwi::pipeline
