/**
 * @file
 * SM pipeline tests: issue timing, peak IPC, divergence behavior,
 * SBI co-issue, SWI gap filling, barriers, memory replay, CTA
 * admission.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "cfg/compiler.hh"
#include "common/log.hh"
#include "core/gpu.hh"
#include "isa/builder.hh"
#include "pipeline/sm.hh"

namespace siwi::pipeline {
namespace {

using isa::Imm;
using isa::KernelBuilder;
using isa::Reg;
using isa::SpecialReg;

isa::Program
compiled(isa::Program raw,
         cfg::LayoutMode layout = cfg::LayoutMode::ThreadFrontier)
{
    cfg::CompileOptions opts;
    opts.layout = layout;
    return cfg::compileKernel(raw, opts).program;
}

/** Long straight-line MAD chain without dependencies. */
isa::Program
madStream(unsigned n)
{
    KernelBuilder b("mads");
    std::vector<Reg> regs;
    for (int i = 0; i < 8; ++i)
        regs.push_back(b.reg());
    for (int i = 0; i < 8; ++i)
        b.movi(regs[size_t(i)], i + 1);
    for (unsigned i = 0; i < n; ++i) {
        // Rotate destinations to avoid WAW pressure.
        b.iadd(regs[i % 4], regs[4 + i % 4], regs[4 + (i + 1) % 4]);
    }
    return compiled(b.build());
}

/** Run @p prog as a grid of @p blocks x @p threads on @p gpu. */
core::SimStats
launchOn(core::Gpu &gpu, const isa::Program &prog, unsigned blocks,
         unsigned threads, Cycle max_cycles,
         SM::TraceHook hook = nullptr)
{
    core::LaunchConfig lc;
    lc.grid_blocks = blocks;
    lc.block_threads = threads;
    lc.max_cycles = max_cycles;
    return gpu.launchTraced(core::Kernel::fromProgram(prog), lc,
                            std::move(hook));
}

core::SimStats
runOn(PipelineMode mode, const isa::Program &prog, unsigned blocks,
      unsigned threads,
      std::function<void(SMConfig &)> tweak = nullptr)
{
    SMConfig cfg = SMConfig::make(mode);
    if (tweak)
        tweak(cfg);
    core::Gpu gpu(cfg);
    core::SimStats st =
        launchOn(gpu, prog, blocks, threads, 2'000'000);
    EXPECT_FALSE(st.timed_out);
    return st;
}

TEST(SmBasic, CompletesTrivialKernel)
{
    KernelBuilder b("t");
    Reg r = b.reg();
    b.movi(r, 1);
    auto st = runOn(PipelineMode::Baseline, compiled(b.build()), 1,
                    32);
    EXPECT_GT(st.cycles, 0u);
    EXPECT_EQ(st.threads_launched, 32u);
    EXPECT_EQ(st.blocks_launched, 1u);
    // movi + exit for one warp.
    EXPECT_EQ(st.instructions, 2u);
    EXPECT_EQ(st.thread_instructions, 64u);
}

TEST(SmBasic, MultiBlockGrid)
{
    KernelBuilder b("t");
    Reg r = b.reg();
    b.movi(r, 1);
    auto st = runOn(PipelineMode::Baseline, compiled(b.build()), 5,
                    64);
    EXPECT_EQ(st.blocks_launched, 5u);
    EXPECT_EQ(st.threads_launched, 320u);
    EXPECT_EQ(st.thread_instructions, 5u * 64 * 2);
}

TEST(SmBasic, PartialWarpMasksOut)
{
    KernelBuilder b("t");
    Reg r = b.reg();
    b.movi(r, 1);
    // 40 threads = one full + one half warp (baseline width 32).
    auto st = runOn(PipelineMode::Baseline, compiled(b.build()), 1,
                    40);
    EXPECT_EQ(st.thread_instructions, 80u);
}

TEST(SmPeak, BaselineDualIssueApproaches64)
{
    // Full occupancy, independent MADs: IPC must approach the
    // baseline peak of 64 (paper 5.1).
    auto st = runOn(PipelineMode::Baseline, madStream(200), 1,
                    1024);
    EXPECT_GT(st.ipc(), 50.0);
    EXPECT_LE(st.ipc(), 64.01);
}

TEST(SmPeak, Warp64MadBoundAlso64)
{
    auto st = runOn(PipelineMode::Warp64, madStream(200), 1, 1024);
    EXPECT_GT(st.ipc(), 48.0);
    EXPECT_LE(st.ipc(), 64.01);
}

TEST(SmPeak, MixedUnitsExceed64OnWideMachines)
{
    // MAD + LSU mix: the baseline is capped at 64 by its 2x32
    // issue bandwidth; the 64-wide machines overlap the MAD and
    // LSU groups and push past it (peak 104, paper 5.1). Use
    // independent destination registers so ILP isn't the limiter,
    // and cache-resident loads.
    KernelBuilder b("mix");
    Reg gtid = b.reg(), addr = b.reg();
    Reg d[6];
    for (auto &r : d)
        r = b.reg();
    b.s2r(gtid, SpecialReg::GTID);
    b.and_(addr, gtid, Imm(31));
    b.shl(addr, addr, Imm(2));
    // Warm the line, then stream: 2 ALU + 1 LD per round.
    b.ld(d[0], addr, 0);
    for (int i = 0; i < 60; ++i) {
        b.iadd(d[i % 3], gtid, Imm(i));
        b.iadd(d[3 + i % 3], gtid, Imm(i + 1));
        b.ld(d[i % 3], addr, 0);
    }
    isa::Program prog = compiled(b.build());
    auto base = runOn(PipelineMode::Baseline, prog, 1, 1024);
    auto swi = runOn(PipelineMode::SWI, prog, 1, 1024);
    EXPECT_LE(base.ipc(), 64.01);
    EXPECT_GT(swi.ipc(), base.ipc());
}

TEST(SmDivergence, BalancedIfElseHurtsBaseline)
{
    // if/else with heavy balanced work: stack runs paths serially.
    KernelBuilder b("balanced");
    Reg tid = b.reg(), c = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::TID);
    b.and_(c, tid, Imm(1));
    b.if_(c);
    for (int i = 0; i < 24; ++i)
        b.iadd(v, v, Imm(i));
    b.else_();
    for (int i = 0; i < 24; ++i)
        b.isub(v, v, Imm(i));
    b.endIf();
    isa::Program prog = compiled(b.build());
    auto base = runOn(PipelineMode::Baseline, prog, 1, 1024);
    auto sbi = runOn(PipelineMode::SBI, prog, 1, 1024);
    // SBI co-issues the two paths: substantially faster.
    EXPECT_LT(sbi.cycles, base.cycles);
    EXPECT_GT(sbi.row_share_issues, 0u);
    EXPECT_GT(sbi.branch_divergences, 0u);
}

TEST(SmDivergence, FunctionalResultSameUnderDivergence)
{
    // Each thread stores tid*3+1 computed through divergent paths.
    KernelBuilder b("div");
    Reg tid = b.reg(), c = b.reg(), v = b.reg(), addr = b.reg();
    b.s2r(tid, SpecialReg::GTID);
    b.and_(c, tid, Imm(1));
    b.if_(c);
    b.imul(v, tid, Imm(3));
    b.iadd(v, v, Imm(1));
    b.else_();
    b.imul(v, tid, Imm(3));
    b.iadd(v, v, Imm(1));
    b.endIf();
    b.shl(addr, tid, Imm(2));
    b.iadd(addr, addr, Imm(0x10000));
    b.st(addr, 0, v);
    isa::Program prog = compiled(b.build());

    for (PipelineMode m :
         {PipelineMode::Baseline, PipelineMode::Warp64,
          PipelineMode::SBI, PipelineMode::SWI,
          PipelineMode::SBISWI}) {
        core::Gpu gpu(SMConfig::make(m));
        launchOn(gpu, prog, 1, 256, 1'000'000);
        for (u32 t = 0; t < 256; ++t)
            ASSERT_EQ(gpu.memory().read32(0x10000 + Addr(t) * 4),
                      t * 3 + 1)
                << pipelineModeName(m);
    }
}

TEST(SmSbi, SecondaryIssuesFromCpc2)
{
    KernelBuilder b("sbi");
    Reg tid = b.reg(), c = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::TID);
    b.and_(c, tid, Imm(1));
    b.if_(c);
    for (int i = 0; i < 16; ++i)
        b.iadd(v, v, Imm(1));
    b.else_();
    for (int i = 0; i < 16; ++i)
        b.isub(v, v, Imm(1));
    b.endIf();
    auto st = runOn(PipelineMode::SBI, compiled(b.build()), 1, 64);
    EXPECT_GT(st.secondary_issues, 0u);
    EXPECT_GT(st.row_share_issues, 0u);
    EXPECT_GT(st.merges, 0u);
}

TEST(SmSbi, FallbackDisabledReducesSecondaryIssues)
{
    // Mixed-unit regular code: the SBI fallback dual-issues another
    // warp's primary instruction to a different group (the MAD
    // group alone cannot be row-shared across warps, so a pure MAD
    // stream sees no fallback).
    KernelBuilder b("mix");
    Reg gtid = b.reg(), addr = b.reg(), v = b.reg(), t = b.reg();
    b.s2r(gtid, SpecialReg::GTID);
    b.and_(addr, gtid, Imm(31));
    b.shl(addr, addr, Imm(2));
    for (int i = 0; i < 40; ++i) {
        b.iadd(t, gtid, Imm(i));
        b.ld(v, addr, 0);
    }
    isa::Program prog = compiled(b.build());
    auto with = runOn(PipelineMode::SBI, prog, 1, 1024);
    auto without =
        runOn(PipelineMode::SBI, prog, 1, 1024, [](SMConfig &c) {
            c.sbi_secondary_fallback = false;
        });
    // Regular code has no CPC2 work; only the fallback produces
    // secondary issues.
    EXPECT_GT(with.fallback_issues, 0u);
    EXPECT_EQ(without.fallback_issues, 0u);
    EXPECT_LE(without.ipc(), with.ipc() * 1.001);
}

TEST(SmSwi, FillsGapsOfPartialWarps)
{
    // Unbalanced if without else: half of each warp idles. The
    // imbalance pattern is half-warp-granular (tid & 32), which the
    // XorRev lane shuffle maps to complementary lanes in half the
    // warps -- exactly the correlation-breaking of section 4.
    KernelBuilder b("gaps");
    Reg tid = b.reg(), c = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::TID);
    b.and_(c, tid, Imm(32));
    b.if_(c);
    for (int i = 0; i < 32; ++i)
        b.iadd(v, v, Imm(1));
    b.endIf();
    isa::Program prog = compiled(b.build());
    auto w64 = runOn(PipelineMode::Warp64, prog, 1, 1024);
    auto swi = runOn(PipelineMode::SWI, prog, 1, 1024);
    EXPECT_GT(swi.row_share_issues, 0u);
    EXPECT_LT(swi.cycles, w64.cycles);
}

TEST(SmSwi, ConflictSquashAccounted)
{
    // Any cascaded run may squash primary picks; the counter must
    // stay consistent (<= secondary issues).
    auto st = runOn(PipelineMode::SWI, madStream(300), 2, 1024);
    EXPECT_LE(st.conflicts_squashed, st.secondary_issues);
}

TEST(SmBarrier, BarrierSynchronizesBlock)
{
    // Thread 0 writes, all threads barrier, then everyone reads.
    KernelBuilder b("bar");
    Reg tid = b.reg(), z = b.reg(), addr = b.reg(), v = b.reg(),
        out = b.reg();
    b.s2r(tid, SpecialReg::TID);
    b.iseteq(z, tid, Imm(0));
    b.movi(addr, 0x2000);
    b.if_(z);
    b.movi(v, 77);
    b.st(addr, 0, v);
    b.endIf();
    b.bar();
    b.ld(v, addr);
    b.shl(out, tid, Imm(2));
    b.iadd(out, out, Imm(0x3000));
    b.st(out, 0, v);
    isa::Program prog = compiled(b.build());

    for (PipelineMode m :
         {PipelineMode::Baseline, PipelineMode::SBI,
          PipelineMode::SBISWI}) {
        core::Gpu gpu(SMConfig::make(m));
        auto st = launchOn(gpu, prog, 1, 128, 1'000'000);
        EXPECT_FALSE(st.timed_out) << pipelineModeName(m);
        EXPECT_GE(st.barrier_releases, 1u);
        for (u32 t = 0; t < 128; ++t)
            ASSERT_EQ(gpu.memory().read32(0x3000 + Addr(t) * 4), 77u)
                << pipelineModeName(m) << " thread " << t;
    }
}

TEST(SmMemory, CoalescedLoadOneTransactionPerWarp)
{
    KernelBuilder b("ld");
    Reg tid = b.reg(), addr = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::GTID);
    b.shl(addr, tid, Imm(2));
    b.iadd(addr, addr, Imm(0x8000));
    b.ld(v, addr);
    auto st = runOn(PipelineMode::Baseline, compiled(b.build()), 1,
                    128);
    // 4 warps x 1 block each.
    EXPECT_EQ(st.load_transactions, 4u);
}

TEST(SmMemory, StridedLoadReplays)
{
    KernelBuilder b("strided");
    Reg tid = b.reg(), addr = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::GTID);
    b.shl(addr, tid, Imm(7)); // 128B stride: one block per lane
    b.iadd(addr, addr, Imm(0x8000));
    b.ld(v, addr);
    auto st = runOn(PipelineMode::Baseline, compiled(b.build()), 1,
                    32, [](SMConfig &c) {
                        c.split_on_memory_divergence = false;
                    });
    EXPECT_EQ(st.load_transactions, 32u);
}

TEST(SmMemory, MemoryDivergenceSplits)
{
    KernelBuilder b("msplit");
    Reg tid = b.reg(), addr = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::GTID);
    b.shl(addr, tid, Imm(7));
    b.iadd(addr, addr, Imm(0x8000));
    b.ld(v, addr);
    b.iadd(v, v, Imm(1));
    auto st = runOn(PipelineMode::SBI, compiled(b.build()), 1, 64);
    EXPECT_GT(st.memory_splits, 0u);
}

TEST(SmScoreboard, DependentChainBoundByLatency)
{
    // Serial dependency chain: one warp, each op waits ~exec
    // latency; IPC per warp must be far below peak.
    KernelBuilder b("chain");
    Reg v = b.reg();
    b.movi(v, 1);
    for (int i = 0; i < 50; ++i)
        b.iadd(v, v, Imm(1));
    auto st = runOn(PipelineMode::Baseline, compiled(b.build()), 1,
                    32);
    // 50 dependent adds x ~9 cycles each.
    EXPECT_GT(st.cycles, 400u);
}

TEST(SmLimits, CycleLimitReported)
{
    KernelBuilder b("spin");
    Reg one = b.reg(), c = b.reg();
    b.movi(one, 1);
    b.loop();
    b.iadd(c, c, Imm(1)); // never terminates: c wraps
    b.endLoopIf(one);
    setLogQuiet(true);
    core::Gpu gpu(SMConfig::make(PipelineMode::Baseline));
    auto st = launchOn(gpu, compiled(b.build()), 1, 32, 5000);
    setLogQuiet(false);
    EXPECT_TRUE(st.timed_out);
    EXPECT_EQ(st.cycles, 5000u);
}

TEST(SmTrace, HookSeesIssues)
{
    KernelBuilder b("t");
    Reg r = b.reg();
    b.movi(r, 1);
    core::Gpu gpu(SMConfig::make(PipelineMode::Baseline));
    // IssueEvent::unit views storage of the SM, which ends with
    // the launch: keep a copy.
    struct Seen
    {
        unsigned lanes;
        std::string unit;
    };
    std::vector<Seen> events;
    launchOn(gpu, compiled(b.build()), 1, 32, 10000,
             [&](const IssueEvent &e) {
                 events.push_back(
                     {e.mask.count(), std::string(e.unit)});
             });
    ASSERT_EQ(events.size(), 2u); // movi + exit
    EXPECT_EQ(events[0].lanes, 32u);
    EXPECT_EQ(events[0].unit.substr(0, 3), "MAD");
}

TEST(SmConstraints, SyncSuspensionOnlyWithConstraints)
{
    KernelBuilder b("sync");
    Reg tid = b.reg(), c = b.reg(), v = b.reg();
    b.s2r(tid, SpecialReg::TID);
    b.and_(c, tid, Imm(1));
    b.if_(c);
    for (int i = 0; i < 12; ++i)
        b.iadd(v, v, Imm(1));
    b.else_();
    b.isub(v, v, Imm(1));
    b.endIf();
    for (int i = 0; i < 4; ++i)
        b.iadd(v, v, Imm(3));
    isa::Program prog = compiled(b.build());
    auto with = runOn(PipelineMode::SBI, prog, 1, 1024);
    auto without =
        runOn(PipelineMode::SBI, prog, 1, 1024, [](SMConfig &c) {
            c.sbi_constraints = false;
        });
    EXPECT_GT(with.sync_suspensions, 0u);
    EXPECT_EQ(without.sync_suspensions, 0u);
    // Without constraints the short path runs ahead and re-issues
    // the tail redundantly: at least as many instructions.
    EXPECT_GE(without.instructions, with.instructions);
}

// ----------------------------------------------------------------
// CTA admission (CtaDispatch): a lone SM takes every CTA that fits
// when it is built and on each block retirement; a chip SM takes one
// per call and polls every cycle.
// ----------------------------------------------------------------

/**
 * SMs that run 64-thread CTAs (two Baseline warps) of a MAD stream
 * long enough that no CTA retires within the steps a test takes.
 */
struct CtaRig
{
    SMConfig cfg = SMConfig::make(PipelineMode::Baseline);
    isa::Program prog = madStream(200);
    mem::MemoryImage memory;
    mem::DramBackend dram{mem::DramConfig{}};

    /** CTAs that fit on one SM at once. */
    unsigned capacity() const
    {
        return std::min(cfg.max_blocks_resident, cfg.num_warps / 2);
    }

    std::unique_ptr<SM> build(CtaDispatch &ctas, unsigned port = 0)
    {
        return std::make_unique<SM>(cfg, memory, dram, port, prog, 64,
                                    ctas);
    }
};

CtaDispatch
dispatch(unsigned grid_blocks, bool one_per_cycle, unsigned next = 0)
{
    return {.grid_blocks = grid_blocks,
            .one_per_cycle = one_per_cycle,
            .next = next};
}

TEST(SmCtaDispatch, LoneSmFillsEveryResidentSlotWhenBuilt)
{
    CtaRig rig;
    ASSERT_GT(rig.capacity(), 3u);
    for (unsigned grid : {3u, rig.capacity() + 5}) {
        SCOPED_TRACE("grid " + std::to_string(grid));
        CtaDispatch ctas = dispatch(grid, false);
        std::unique_ptr<SM> sm = rig.build(ctas);
        const unsigned fits = std::min(grid, rig.capacity());
        EXPECT_EQ(sm->stats().blocks_launched, fits);
        EXPECT_EQ(ctas.next, fits);
        // Full or out of CTAs: none is admitted before a retirement.
        for (int i = 0; i < 5; ++i)
            sm->step();
        EXPECT_EQ(sm->stats().blocks_launched, fits);
        EXPECT_FALSE(sm->done());
    }
}

TEST(SmCtaDispatch, ChipSmTakesOneCtaPerStepWhileItHasRoom)
{
    CtaRig rig;
    const unsigned cap = rig.capacity();
    CtaDispatch ctas = dispatch(cap + 5, true);
    std::unique_ptr<SM> sm = rig.build(ctas);
    EXPECT_EQ(sm->stats().blocks_launched, 1u);
    for (unsigned k = 1; k <= cap + 2; ++k) {
        sm->step();
        EXPECT_EQ(sm->stats().blocks_launched, std::min(k + 1, cap))
            << "after step " << k;
    }
    EXPECT_EQ(ctas.next, cap);
    EXPECT_FALSE(sm->done());
}

TEST(SmCtaDispatch, TwoSmsSplitTheGridRoundRobin)
{
    CtaRig rig;
    CtaDispatch ctas = dispatch(6, true);
    std::unique_ptr<SM> sm0 = rig.build(ctas, 0);
    std::unique_ptr<SM> sm1 = rig.build(ctas, 1);
    for (int i = 0; i < 4; ++i) {
        sm0->step();
        sm1->step();
    }
    EXPECT_EQ(sm0->stats().blocks_launched, 3u);
    EXPECT_EQ(sm1->stats().blocks_launched, 3u);
    EXPECT_EQ(ctas.next, 6u);
    // Built and stepped in index order: SM 0 runs the even CTAs.
    for (unsigned cta = 0; cta < 6; ++cta) {
        const std::string tag = " cta=" + std::to_string(cta) + " ";
        const SM &mine = cta % 2 ? *sm1 : *sm0;
        const SM &other = cta % 2 ? *sm0 : *sm1;
        EXPECT_NE(mine.debugState().find(tag), std::string::npos) << tag;
        EXPECT_EQ(other.debugState().find(tag), std::string::npos) << tag;
    }
}

TEST(SmCtaDispatch, EmptyDispatcherIsDoneAtOnce)
{
    CtaRig rig;
    // A chip SM built after its peers took the whole grid.
    CtaDispatch chip = dispatch(1, true);
    std::unique_ptr<SM> busy = rig.build(chip, 0);
    std::unique_ptr<SM> idle = rig.build(chip, 1);
    EXPECT_FALSE(busy->done());
    EXPECT_TRUE(idle->done());
    EXPECT_EQ(idle->finalizeStats().cycles, 0u);
    EXPECT_EQ(idle->stats().blocks_launched, 0u);

    // A lone SM on a dispatcher that is already exhausted.
    CtaDispatch empty = dispatch(4, false, 4);
    std::unique_ptr<SM> lone = rig.build(empty);
    EXPECT_TRUE(lone->done());
    EXPECT_EQ(lone->finalizeStats().cycles, 0u);
    EXPECT_EQ(lone->stats().blocks_launched, 0u);
}

} // namespace
} // namespace siwi::pipeline
