/**
 * @file
 * SMConfig factory tests against the paper's Table 2.
 */

#include <gtest/gtest.h>

#include "core/gpu.hh"
#include "pipeline/config.hh"

namespace siwi::pipeline {
namespace {

TEST(Config, BaselineMatchesTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::Baseline);
    EXPECT_EQ(c.num_warps, 32u);
    EXPECT_EQ(c.warp_width, 32u);
    EXPECT_EQ(c.num_pools, 2u);
    EXPECT_EQ(c.reconv, ReconvMode::Stack);
    EXPECT_EQ(c.delivery_latency, 0u);
    EXPECT_EQ(c.exec_latency, 8u);
    EXPECT_EQ(c.scoreboard_entries, 6u);
    EXPECT_FALSE(c.sbi);
    EXPECT_FALSE(c.swi);
    EXPECT_EQ(c.maxThreads(), 1024u);
}

TEST(Config, SbiMatchesTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::SBI);
    EXPECT_EQ(c.num_warps, 16u);
    EXPECT_EQ(c.warp_width, 64u);
    EXPECT_EQ(c.reconv, ReconvMode::ThreadFrontier);
    EXPECT_TRUE(c.sbi);
    EXPECT_FALSE(c.swi);
    EXPECT_EQ(c.delivery_latency, 1u);
    EXPECT_EQ(c.maxThreads(), 1024u);
}

TEST(Config, SwiMatchesTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::SWI);
    EXPECT_EQ(c.warp_width, 64u);
    EXPECT_TRUE(c.swi);
    EXPECT_FALSE(c.sbi);
    EXPECT_EQ(c.delivery_latency, 1u);
    EXPECT_EQ(c.lane_shuffle, LaneShufflePolicy::XorRev);
}

TEST(Config, SbiSwiCombinesBoth)
{
    SMConfig c = SMConfig::make(PipelineMode::SBISWI);
    EXPECT_TRUE(c.sbi);
    EXPECT_TRUE(c.swi);
}

TEST(Config, TwoPoolsRejectSbiAndSwi)
{
    // SBI's second front-end and SWI's cascaded scheduler schedule
    // one pool: on two pools either would run another machine.
    for (PipelineMode m : {PipelineMode::SBI, PipelineMode::SWI,
                           PipelineMode::SBISWI}) {
        SMConfig c = SMConfig::make(m);
        c.num_pools = 2;
        EXPECT_NE(c.checkInvariants().find("num_pools"),
                  std::string::npos)
            << pipelineModeName(m);
    }
    for (bool sbi : {false, true}) {
        SMConfig c = SMConfig::make(PipelineMode::Warp64);
        (sbi ? c.sbi : c.swi) = true;
        EXPECT_NE(c.checkInvariants().find("num_pools"),
                  std::string::npos)
            << (sbi ? "sbi" : "swi");
        c.num_pools = 1;
        EXPECT_EQ(c.checkInvariants(), "") << (sbi ? "sbi" : "swi");
    }
}

TEST(Config, MemoryDefaultsMatchTable2)
{
    SMConfig c = SMConfig::make(PipelineMode::Baseline);
    EXPECT_EQ(c.mem.l1.size_bytes, 48u * 1024);
    EXPECT_EQ(c.mem.l1.ways, 6u);
    EXPECT_EQ(c.mem.l1.block_bytes, 128u);
    EXPECT_EQ(c.mem.l1.hit_latency, 3u);
    // The DRAM block is the chip's; at one SM it is the paper's.
    mem::DramConfig dram = core::GpuConfig::make(c, 1).dram;
    EXPECT_EQ(dram.bytes_per_cycle_x10, 100u); // 10 GB/s
    EXPECT_EQ(dram.latency_cycles, 330u);
}

TEST(Config, ExecGeometryPreservesLaneBudget)
{
    // All configurations keep 64 MAD lanes + 8 SFU + 32 LSU.
    for (PipelineMode m :
         {PipelineMode::Baseline, PipelineMode::Warp64,
          PipelineMode::SBI, PipelineMode::SWI,
          PipelineMode::SBISWI}) {
        SMConfig c = SMConfig::make(m);
        EXPECT_EQ(c.mad_groups * c.mad_width, 64u);
        EXPECT_EQ(c.sfu_width, 8u);
        EXPECT_EQ(c.lsu_width, 32u);
    }
}

TEST(Config, SummaryMentionsMode)
{
    // The mode is its switches: SBI+SWI is both on, with Table 2's
    // 2-cycle (cascaded) scheduler.
    SMConfig c = SMConfig::make(PipelineMode::SBISWI);
    std::string s = c.summary();
    EXPECT_NE(s.find("SBI:                on"), std::string::npos);
    EXPECT_NE(s.find("SWI:                on"), std::string::npos);
    EXPECT_NE(s.find("scheduler latency:  2"), std::string::npos);
    EXPECT_NE(s.find("thread frontier"), std::string::npos);
}

TEST(Config, ModeNames)
{
    EXPECT_STREQ(pipelineModeName(PipelineMode::Baseline),
                 "Baseline");
    EXPECT_STREQ(pipelineModeName(PipelineMode::SBISWI), "SBI+SWI");
    EXPECT_STREQ(laneShuffleName(LaneShufflePolicy::XorRev),
                 "XorRev");
}

TEST(Config, StackModeDisablesMemorySplits)
{
    SMConfig c = SMConfig::make(PipelineMode::Baseline);
    EXPECT_FALSE(c.split_on_memory_divergence);
    c = SMConfig::make(PipelineMode::SBI);
    EXPECT_TRUE(c.split_on_memory_divergence);
}

} // namespace
} // namespace siwi::pipeline
