/**
 * @file
 * Tests for the front-end seams: stack vs. thread-frontier
 * parity on straight-line code, and policy-driven schedule
 * changes at the SM level.
 */

#include <gtest/gtest.h>

#include <map>

#include "cfg/compiler.hh"
#include "common/log.hh"
#include "core/gpu.hh"
#include "frontend/sched_policy.hh"
#include "isa/builder.hh"
#include "workloads/workload.hh"

using namespace siwi;
using namespace siwi::pipeline;

namespace {

using isa::Imm;
using isa::KernelBuilder;
using isa::Reg;
using isa::SpecialReg;

isa::Program
compiled(isa::Program raw)
{
    cfg::CompileOptions opts;
    opts.layout = cfg::LayoutMode::ThreadFrontier;
    return cfg::compileKernel(raw, opts).program;
}

/** Straight-line independent-MAD stream (no branches). */
isa::Program
madStream(unsigned n)
{
    KernelBuilder b("mads");
    std::vector<Reg> regs;
    for (int i = 0; i < 8; ++i)
        regs.push_back(b.reg());
    for (int i = 0; i < 8; ++i)
        b.movi(regs[size_t(i)], i + 1);
    for (unsigned i = 0; i < n; ++i)
        b.iadd(regs[i % 4], regs[4 + i % 4], regs[4 + (i + 1) % 4]);
    return compiled(b.build());
}

core::SimStats
runConfig(const SMConfig &cfg, const isa::Program &prog,
          unsigned blocks, unsigned threads)
{
    core::Gpu gpu(cfg);
    core::LaunchConfig lc;
    lc.grid_blocks = blocks;
    lc.block_threads = threads;
    lc.max_cycles = 2'000'000;
    core::SimStats st =
        gpu.launch(core::Kernel::fromProgram(prog), lc);
    EXPECT_FALSE(st.timed_out);
    return st;
}

TEST(FrontEndParity, StackAndInterweaveMatchOnStraightLine)
{
    // Same machine geometry, only the divergence substrate
    // differs. Straight-line code never diverges, so both must
    // schedule the same instruction stream: identical issue
    // counts and work.
    SMConfig tf = SMConfig::make(PipelineMode::Warp64);

    SMConfig stack = tf;
    stack.reconv = ReconvMode::Stack;
    stack.split_on_memory_divergence = false; // stack cannot split
    stack.validate();

    isa::Program prog = madStream(60);
    core::SimStats a = runConfig(stack, prog, 4, 512);
    core::SimStats b = runConfig(tf, prog, 4, 512);

    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.thread_instructions, b.thread_instructions);
    EXPECT_EQ(a.fetches, b.fetches);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.branch_divergences, 0u);
    EXPECT_EQ(b.warp_splits, 0u);
}

TEST(FrontEndPolicy, PoliciesAreDeterministic)
{
    isa::Program prog = compiled([] {
        KernelBuilder b("t");
        Reg r = b.reg();
        b.movi(r, 1);
        return b.build();
    }());
    for (size_t i = 0; i < std::size(frontend::sched_policy_names);
         ++i) {
        const auto k = frontend::SchedPolicyKind(i);
        SMConfig cfg = SMConfig::make(PipelineMode::SBISWI);
        cfg.sched_policy = k;
        core::SimStats once = runConfig(cfg, prog, 2, 128);
        core::SimStats twice = runConfig(cfg, prog, 2, 128);
        EXPECT_EQ(once, twice)
            << frontend::schedPolicyName(k);
    }
}

TEST(FrontEndPolicy, PoliciesProduceDistinctSchedules)
{
    // A real divergent workload with enough concurrent warps that
    // the primary ordering actually changes the schedule (cycle
    // count) for at least one non-oldest policy, while every
    // policy still verifies.
    setLogQuiet(true);
    const workloads::Workload *wl =
        workloads::findWorkload("Histogram");
    ASSERT_NE(wl, nullptr);

    SMConfig base = SMConfig::make(PipelineMode::Baseline);
    std::map<frontend::SchedPolicyKind, core::SimStats> stats;
    for (size_t i = 0; i < std::size(frontend::sched_policy_names);
         ++i) {
        const auto k = frontend::SchedPolicyKind(i);
        SMConfig cfg = base;
        cfg.sched_policy = k;
        workloads::RunResult res = workloads::runWorkload(
            *wl, cfg, workloads::SizeClass::Tiny);
        EXPECT_TRUE(res.verified)
            << frontend::schedPolicyName(k) << ": "
            << res.verify_msg;
        stats[k] = res.stats;
    }
    const core::SimStats &oldest =
        stats[frontend::SchedPolicyKind::OldestFirst];
    unsigned distinct = 0;
    for (const auto &[k, st] : stats) {
        // Same work under every ordering...
        EXPECT_EQ(st.thread_instructions,
                  oldest.thread_instructions)
            << frontend::schedPolicyName(k);
        if (st.cycles != oldest.cycles)
            ++distinct;
    }
    // ...but not the same schedule.
    EXPECT_GE(distinct, 1u);
}

} // namespace
