/**
 * @file
 * Public-API (Gpu / Kernel) tests.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/gpu.hh"
#include "isa/assembler.hh"
#include "isa/builder.hh"

namespace siwi::core {
namespace {

using isa::Imm;
using isa::KernelBuilder;
using isa::Reg;
using isa::SpecialReg;

Kernel
saxpyKernel()
{
    KernelBuilder b("saxpy");
    Reg gtid = b.reg(), xaddr = b.reg(), yaddr = b.reg(),
        x = b.reg(), y = b.reg(), a = b.reg();
    b.s2r(gtid, SpecialReg::GTID);
    b.shl(xaddr, gtid, Imm(2));
    b.iadd(yaddr, xaddr, Imm(0x2000));
    b.iadd(xaddr, xaddr, Imm(0x1000));
    b.ld(x, xaddr);
    b.ld(y, yaddr);
    b.fmovi(a, 2.0f);
    b.fmad(y, a, x, y);
    b.st(yaddr, 0, y);
    return Kernel::compile(b.build());
}

TEST(Gpu, LaunchRunsToCompletion)
{
    Gpu gpu(pipeline::SMConfig::make(pipeline::PipelineMode::SBI));
    for (unsigned i = 0; i < 64; ++i) {
        gpu.memory().writeF32(0x1000 + Addr(i) * 4, float(i));
        gpu.memory().writeF32(0x2000 + Addr(i) * 4, 1.0f);
    }
    LaunchConfig lc;
    lc.grid_blocks = 1;
    lc.block_threads = 64;
    SimStats st = gpu.launch(saxpyKernel(), lc);
    EXPECT_FALSE(st.timed_out);
    EXPECT_GT(st.ipc(), 0.0);
    for (unsigned i = 0; i < 64; ++i) {
        EXPECT_FLOAT_EQ(gpu.memory().readF32(0x2000 + Addr(i) * 4),
                        2.0f * float(i) + 1.0f);
    }
}

TEST(Gpu, MemoryPersistsAcrossLaunches)
{
    Gpu gpu(
        pipeline::SMConfig::make(pipeline::PipelineMode::Baseline));
    for (unsigned i = 0; i < 32; ++i) {
        gpu.memory().writeF32(0x1000 + Addr(i) * 4, 1.0f);
        gpu.memory().writeF32(0x2000 + Addr(i) * 4, 0.0f);
    }
    LaunchConfig lc;
    lc.block_threads = 32;
    gpu.launch(saxpyKernel(), lc);
    gpu.launch(saxpyKernel(), lc); // y += 2x twice
    EXPECT_FLOAT_EQ(gpu.memory().readF32(0x2000), 4.0f);
}

TEST(Gpu, TracedLaunchDeliversEvents)
{
    Gpu gpu(
        pipeline::SMConfig::make(pipeline::PipelineMode::Baseline));
    LaunchConfig lc;
    lc.block_threads = 32;
    unsigned events = 0;
    gpu.launchTraced(saxpyKernel(), lc,
                     [&](const pipeline::IssueEvent &) {
                         ++events;
                     });
    EXPECT_GT(events, 5u);
}

TEST(Kernel, CompileReportsSyncStats)
{
    KernelBuilder b("k");
    Reg c = b.reg(), v = b.reg();
    b.if_(c);
    b.movi(v, 1);
    b.else_();
    b.movi(v, 2);
    b.endIf();
    Kernel k = Kernel::compile(b.build());
    EXPECT_EQ(k.syncStats().divergent_branches, 1u);
    EXPECT_EQ(k.layoutViolations(), 0u);
    EXPECT_EQ(k.name(), "k");
}

TEST(Kernel, FromProgramSkipsCompilation)
{
    auto res = isa::assemble("movi r0, #5\nexit\n");
    ASSERT_TRUE(res.ok());
    Kernel k = Kernel::fromProgram(res.program);
    EXPECT_EQ(k.program().size(), 2u);
}

TEST(GpuConfig, MakeBuildsChips)
{
    GpuConfig one =
        GpuConfig::make(pipeline::PipelineMode::SBISWI, 1);
    EXPECT_EQ(one.num_sms, 1u);
    EXPECT_EQ(one.dram, mem::DramConfig{});

    GpuConfig chip =
        GpuConfig::make(pipeline::PipelineMode::SBISWI, 8);
    EXPECT_EQ(chip.num_sms, 8u);
    // The chip channel saturates at 4x the per-SM bandwidth.
    EXPECT_EQ(chip.dram.bytes_per_cycle_x10,
              4 * mem::DramConfig{}.bytes_per_cycle_x10);
    EXPECT_EQ(chip.dram.latency_cycles,
              mem::DramConfig{}.latency_cycles);
}

TEST(Gpu, MultiSmProducesCorrectResults)
{
    // The same saxpy grid on 1 and on 4 SMs must compute the same
    // memory image: CTA distribution is a scheduling concern only.
    const unsigned blocks = 8, threads = 64;
    const unsigned n = blocks * threads;

    for (unsigned sms : {1u, 4u}) {
        Gpu gpu(GpuConfig::make(pipeline::PipelineMode::SBISWI,
                                sms));
        for (unsigned i = 0; i < n; ++i) {
            gpu.memory().writeF32(0x1000 + Addr(i) * 4, float(i));
            gpu.memory().writeF32(0x2000 + Addr(i) * 4, 1.0f);
        }
        LaunchConfig lc;
        lc.grid_blocks = blocks;
        lc.block_threads = threads;
        SimStats st = gpu.launch(saxpyKernel(), lc);
        EXPECT_FALSE(st.timed_out);
        EXPECT_EQ(st.blocks_launched, u64(blocks));
        for (unsigned i = 0; i < n; ++i) {
            ASSERT_FLOAT_EQ(
                gpu.memory().readF32(0x2000 + Addr(i) * 4),
                2.0f * float(i) + 1.0f)
                << "sms=" << sms << " i=" << i;
        }
    }
}

TEST(Gpu, MultiSmLaunchIsDeterministic)
{
    auto run = [] {
        Gpu gpu(GpuConfig::make(pipeline::PipelineMode::SBI, 4));
        for (unsigned i = 0; i < 512; ++i) {
            gpu.memory().writeF32(0x1000 + Addr(i) * 4, float(i));
            gpu.memory().writeF32(0x2000 + Addr(i) * 4, 1.0f);
        }
        LaunchConfig lc;
        lc.grid_blocks = 8;
        lc.block_threads = 64;
        return gpu.launch(saxpyKernel(), lc);
    };
    SimStats a = run();
    SimStats b = run();
    EXPECT_EQ(a, b); // field-wise, including the per-SM vector
}

TEST(Gpu, PerSmStatsSumToChipAggregate)
{
    Gpu gpu(GpuConfig::make(pipeline::PipelineMode::SBISWI, 4));
    for (unsigned i = 0; i < 512; ++i) {
        gpu.memory().writeF32(0x1000 + Addr(i) * 4, float(i));
        gpu.memory().writeF32(0x2000 + Addr(i) * 4, 1.0f);
    }
    LaunchConfig lc;
    lc.grid_blocks = 8;
    lc.block_threads = 64;
    SimStats st = gpu.launch(saxpyKernel(), lc);

    EXPECT_EQ(st.num_sms, 4u);
    ASSERT_EQ(st.per_sm.size(), 4u);

    u64 insts = 0, tinsts = 0, loads = 0, stores = 0, blocks = 0,
        threads = 0;
    Cycle max_cycles = 0;
    unsigned active_sms = 0;
    for (const SimStats &s : st.per_sm) {
        insts += s.instructions;
        tinsts += s.thread_instructions;
        loads += s.load_transactions;
        stores += s.store_transactions;
        blocks += s.blocks_launched;
        threads += s.threads_launched;
        max_cycles = std::max(max_cycles, s.cycles);
        active_sms += s.blocks_launched > 0;
        // Shared-backend counters are chip-level only.
        EXPECT_EQ(s.dram_transactions, 0u);
        EXPECT_EQ(s.l2_hits + s.l2_misses, 0u);
        EXPECT_TRUE(s.per_sm.empty());
    }
    EXPECT_EQ(st.instructions, insts);
    EXPECT_EQ(st.thread_instructions, tinsts);
    EXPECT_EQ(st.load_transactions, loads);
    EXPECT_EQ(st.store_transactions, stores);
    EXPECT_EQ(st.blocks_launched, blocks);
    EXPECT_EQ(st.threads_launched, threads);
    EXPECT_EQ(st.cycles, max_cycles);

    // 8 CTAs on 4 SMs, round-robin dispatch: every SM got work.
    EXPECT_EQ(active_sms, 4u);
    // The chip really used its shared backend.
    EXPECT_GT(st.l2_hits + st.l2_misses, 0u);
    EXPECT_GT(st.dram_transactions, 0u);
}

TEST(Gpu, AssembledKernelRuns)
{
    const char *src = R"(
.kernel store_tid
    s2r r0, %gtid
    shl r1, r0, #2
    iadd r1, r1, #0x4000
    st [r1+0], r0
    exit
)";
    auto res = isa::assemble(src);
    ASSERT_TRUE(res.ok()) << res.error;
    Kernel k = Kernel::compile(res.program);
    Gpu gpu(
        pipeline::SMConfig::make(pipeline::PipelineMode::SBISWI));
    LaunchConfig lc;
    lc.grid_blocks = 2;
    lc.block_threads = 128;
    gpu.launch(k, lc);
    for (u32 t = 0; t < 256; ++t)
        ASSERT_EQ(gpu.memory().read32(0x4000 + Addr(t) * 4), t);
}

} // namespace
} // namespace siwi::core
