/**
 * @file
 * Unit tests for the SchedPolicy strategies, against a scripted
 * mock FrontEndHost: selection order, cursor/greedy state, and
 * the policy names.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/config_reflect.hh"
#include "frontend/front_end.hh"
#include "frontend/sched_policy.hh"
#include "pipeline/config.hh"

using namespace siwi;
using namespace siwi::frontend;

namespace {

/**
 * A host whose candidate readiness / age / PC is a scripted
 * table, so policy selection can be tested in isolation from the
 * pipeline.
 */
class MockHost final : public FrontEndHost
{
  public:
    struct Slot
    {
        bool ready = false;
        u64 seq = 0;
        Pc pc = 0;
    };

    MockHost()
    {
        cfg_ = pipeline::SMConfig::make(
            pipeline::PipelineMode::Baseline);
    }

    Slot &slot(WarpId w, unsigned s) { return slots_[{w, s}]; }

    const pipeline::SMConfig &config() const override
    {
        return cfg_;
    }
    Cycle now() const override { return 0; }
    unsigned numWarps() const override { return num_warps_; }
    void setNumWarps(unsigned n) { num_warps_ = n; }

    CtxView ctxView(WarpId, unsigned) const override
    {
        return CtxView{};
    }

    const pipeline::IBufEntry *entryFor(
        WarpId w, unsigned s) const override
    {
        auto it = slots_.find({w, s});
        if (it == slots_.end() || !it->second.ready)
            return nullptr;
        entry_.seq = it->second.seq;
        entry_.pc = it->second.pc;
        return &entry_;
    }
    pipeline::IBufEntry *entryFor(WarpId w, unsigned s) override
    {
        return const_cast<pipeline::IBufEntry *>(
            std::as_const(*this).entryFor(w, s));
    }
    pipeline::IBufEntry *findCtx(WarpId, u32) override
    {
        return nullptr;
    }

    bool ready(WarpId w, unsigned s, bool) const override
    {
        auto it = slots_.find({w, s});
        return it != slots_.end() && it->second.ready;
    }

    // The mock never parks warps: every warp is always an issue
    // candidate.
    const pipeline::WarpSet &issueCandidates(unsigned) const override
    {
        every_warp_.reset(num_warps_);
        for (WarpId w = 0; w < num_warps_; ++w)
            every_warp_.insert(w);
        return every_warp_;
    }
    void dropClaim(WarpId, pipeline::IBufEntry &e) override
    {
        e.claimed = false;
    }

    pipeline::ExecGroup *freeGroup(isa::UnitClass) override
    {
        return nullptr;
    }
    bool issueCand(WarpId, unsigned, bool, PrimaryIssueInfo *,
                   bool) override
    {
        return false;
    }
    const PrimaryIssueInfo &lastPrimary() const override
    {
        return last_;
    }
    void clearLastPrimary() override
    {
        last_ = PrimaryIssueInfo{};
    }
    core::SimStats &stats() override { return stats_; }

  private:
    pipeline::SMConfig cfg_;
    unsigned num_warps_ = 4;
    mutable pipeline::WarpSet every_warp_;
    std::map<std::pair<WarpId, unsigned>, Slot> slots_;
    // entryFor returns a view of the scripted slot through one
    // reusable entry (the policies only look at seq/pc).
    mutable pipeline::IBufEntry entry_;
    PrimaryIssueInfo last_;
    core::SimStats stats_;
};

std::vector<Cand>
domain(unsigned warps)
{
    std::vector<Cand> d;
    for (WarpId w = 0; w < warps; ++w)
        d.push_back({w, 0});
    return d;
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
    MockHost host;
    auto p = makeSchedPolicy(SchedPolicyKind::OldestFirst, 4);
    host.slot(1, 0) = {true, 30, 5};
    host.slot(2, 0) = {true, 10, 9};
    host.slot(3, 0) = {true, 20, 1};
    auto c = p->select(host, domain(4), true);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->w, 2u);

    host.slot(2, 0).ready = false;
    c = p->select(host, domain(4), true);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->w, 3u);

    for (WarpId w = 0; w < 4; ++w)
        host.slot(w, 0).ready = false;
    EXPECT_FALSE(p->select(host, domain(4), true).has_value());
}

TEST(SchedPolicy, RoundRobinAdvancesPastIssuedWarp)
{
    MockHost host;
    auto p = makeSchedPolicy(SchedPolicyKind::RoundRobin, 4);
    for (WarpId w = 0; w < 4; ++w)
        host.slot(w, 0) = {true, u64(100 - w), 0}; // ages decorrelated

    auto c = p->select(host, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u); // cursor starts at warp 0
    p->notifyIssued(*c);

    c = p->select(host, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 1u); // cursor moved past warp 0
    p->notifyIssued(*c);

    host.slot(2, 0).ready = false; // loose: skip stalled warp
    c = p->select(host, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 3u);
    p->notifyIssued(*c);

    c = p->select(host, domain(4), true); // wraps to warp 0
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u);
}

TEST(SchedPolicy, GtoSticksWithLastWarpThenOldest)
{
    MockHost host;
    auto p = makeSchedPolicy(SchedPolicyKind::GreedyThenOldest, 4);
    host.slot(0, 0) = {true, 50, 0};
    host.slot(2, 0) = {true, 10, 0};

    // No last warp yet: oldest (warp 2) wins.
    auto c = p->select(host, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u);
    p->notifyIssued(*c);

    // Warp 2 still ready: greedy keeps it even when another warp
    // holds the older instruction now.
    host.slot(0, 0).seq = 1;
    c = p->select(host, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u);
    p->notifyIssued(*c);

    // Last warp dries up: fall back to oldest.
    host.slot(2, 0).ready = false;
    c = p->select(host, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 0u);
}

TEST(SchedPolicy, MinPcPrefersTrailingPcWithAgeTieBreak)
{
    MockHost host;
    auto p = makeSchedPolicy(SchedPolicyKind::MinPc, 4);
    host.slot(0, 0) = {true, 5, 40};
    host.slot(1, 0) = {true, 9, 12};
    host.slot(2, 0) = {true, 3, 12};
    host.slot(3, 0) = {true, 1, 90};

    auto c = p->select(host, domain(4), true);
    ASSERT_TRUE(c);
    EXPECT_EQ(c->w, 2u); // pc 12, and older than warp 1
}

} // namespace
