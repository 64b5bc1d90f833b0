/**
 * @file
 * Windowed-oracle property test for SM::step / SM::nextWake.
 *
 * The skip loop's soundness argument is local: after a quiet
 * step(), every cycle strictly before nextWake() must also be
 * quiet. This harness checks exactly that — an oracle SM steps
 * every cycle recording its per-cycle progress bit, and a skip SM
 * validates each skip window against the oracle's record before
 * jumping. A wake source missing from nextWake() (scoreboard
 * release, barrier arrival, MSHR free, CCT fold, group release)
 * fails here with the precise first cycle the bound missed,
 * rather than as a mysterious end-to-end stat diff. Barrier-heavy
 * and divergent workloads across all five pipeline modes exercise
 * every progress source, including warps parked on barriers and
 * randomized heap states.
 *
 * Per-warp sleep/wake gets the same treatment at warp granularity:
 * like every test of the integration binary, every run here
 * executes under SM::setSleepAudit (sleep_audit_env.cc), which
 * makes step() re-verify each parked warp every cycle — still
 * provably non-issuable (sleepEligible holds), and out of every
 * work set but the heap set, which keeps it only until its sorter
 * fold is due. The oracle SM steps every cycle, so each parked warp
 * is re-proven non-issuable for every cycle of its parked window,
 * not just at the endpoints. A violation panics (aborts) with the
 * warp, cycle and full SM debug state, which gtest reports as a
 * crashed test with that message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/kernel.hh"
#include "mem/memory_image.hh"
#include "pipeline/sm.hh"
#include "workloads/workload.hh"

namespace siwi {
namespace {

using workloads::SizeClass;

void
checkWindows(const workloads::Workload &wl,
             pipeline::PipelineMode mode)
{
    SCOPED_TRACE(std::string(wl.name()) + " on " +
                 pipeline::pipelineModeName(mode));
    workloads::Instance inst = wl.instance(SizeClass::Tiny);
    core::Kernel kernel =
        core::Kernel::compile(inst.raw, inst.compile);
    pipeline::SMConfig cfg = pipeline::SMConfig::make(mode);
    const Cycle limit = 2'000'000;

    // Oracle: per-cycle stepping, one progress bit per cycle.
    mem::MemoryImage oracle_mem;
    wl.init(oracle_mem, SizeClass::Tiny);
    mem::DramBackend oracle_dram{mem::DramConfig{}};
    pipeline::CtaDispatch oracle_ctas{.grid_blocks = inst.grid_blocks,
                                      .one_per_cycle = false,
                                      .next = 0};
    pipeline::SM oracle(cfg, oracle_mem, oracle_dram, 0, kernel.program(),
                        inst.block_threads, oracle_ctas);
    std::vector<char> progressed;
    while (!oracle.done() && oracle.now() < limit)
        progressed.push_back(oracle.step() ? 1 : 0);
    ASSERT_TRUE(oracle.done()) << "oracle hit the cycle limit";

    // Skip run: the progress bit must agree cycle for cycle, and
    // every skip window must be quiet in the oracle's record.
    mem::MemoryImage skip_mem;
    wl.init(skip_mem, SizeClass::Tiny);
    mem::DramBackend skip_dram{mem::DramConfig{}};
    pipeline::CtaDispatch skip_ctas{.grid_blocks = inst.grid_blocks,
                                    .one_per_cycle = false,
                                    .next = 0};
    pipeline::SM skipper(cfg, skip_mem, skip_dram, 0, kernel.program(),
                         inst.block_threads, skip_ctas);
    while (!skipper.done() && skipper.now() < limit) {
        Cycle t = skipper.now();
        bool p = skipper.step();
        ASSERT_LT(t, progressed.size());
        ASSERT_EQ(bool(progressed[t]), p)
            << "progress bit diverged at cycle " << t;
        if (p)
            continue;
        Cycle wake = std::min(skipper.nextWake(), limit);
        for (Cycle c = skipper.now(); c < wake; ++c) {
            ASSERT_FALSE(c < progressed.size() && progressed[c])
                << "quiet at " << t << ", bound " << wake
                << ", but the oracle progressed at " << c;
        }
        if (wake > skipper.now())
            skipper.skipTo(wake);
    }
    ASSERT_TRUE(skipper.done());
    EXPECT_EQ(skipper.now(), oracle.now());
    EXPECT_TRUE(skipper.finalizeStats() == oracle.finalizeStats());
}

TEST(NextEventProperty, BarrierHeavyAllModes)
{
    const workloads::Workload *wl =
        workloads::findWorkload("FastWalshTransform");
    ASSERT_NE(wl, nullptr);
    for (pipeline::PipelineMode mode :
         {pipeline::PipelineMode::Baseline,
          pipeline::PipelineMode::Warp64,
          pipeline::PipelineMode::SBI, pipeline::PipelineMode::SWI,
          pipeline::PipelineMode::SBISWI})
        checkWindows(*wl, mode);
}

TEST(NextEventProperty, DivergentAllModes)
{
    const workloads::Workload *wl = workloads::findWorkload("BFS");
    ASSERT_NE(wl, nullptr);
    for (pipeline::PipelineMode mode :
         {pipeline::PipelineMode::Baseline,
          pipeline::PipelineMode::Warp64,
          pipeline::PipelineMode::SBI, pipeline::PipelineMode::SWI,
          pipeline::PipelineMode::SBISWI})
        checkWindows(*wl, mode);
}

TEST(NextEventProperty, SortingNetworkAllModes)
{
    const workloads::Workload *wl =
        workloads::findWorkload("SortingNetworks");
    ASSERT_NE(wl, nullptr);
    for (pipeline::PipelineMode mode :
         {pipeline::PipelineMode::Baseline,
          pipeline::PipelineMode::Warp64,
          pipeline::PipelineMode::SBI, pipeline::PipelineMode::SWI,
          pipeline::PipelineMode::SBISWI})
        checkWindows(*wl, mode);
}

} // namespace
} // namespace siwi
