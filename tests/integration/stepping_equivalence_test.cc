/**
 * @file
 * Differential stepping-equivalence harness.
 *
 * Event-driven cycle skipping (core::LaunchConfig::cycle_skip)
 * promises observational equivalence: the complete SimStats block —
 * cycle counts, IPC denominators, per-SM breakdowns, timeout flags
 * — must be bit-identical to stepping every cycle. These tests run
 * the whole fast suite plus randomized machine mutations both ways
 * and compare with SimStats::operator==, so any wake-bound bug that
 * changes *anything* observable fails loudly rather than skewing
 * results quietly.
 *
 * Like every test of the integration binary, all runs here
 * execute under SM::setSleepAudit (sleep_audit_env.cc): step()
 * re-verifies every parked warp every cycle — sleepEligible must
 * still hold, and it must be in no work set but the heap set while
 * its sorter fold is pending and not yet due — so the --no-skip leg
 * of each pair proves every parked warp non-issuable for every
 * cycle of its parked window, across the whole fast suite and the
 * randomized machine mutations. An audit violation panics (aborts)
 * with the warp, cycle and full SM debug state rather than
 * surfacing as an opaque stat diff.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/config_io.hh"
#include "core/gpu.hh"
#include "pipeline/config_io.hh"
#include "runner/runner.hh"
#include "workloads/workload.hh"

namespace siwi {
namespace {

using runner::CellSpec;
using runner::SweepSpec;
using workloads::RunResult;
using workloads::SizeClass;

/**
 * Run one (workload, chip) both ways and compare everything.
 * @return the skipping run
 */
RunResult
expectEquivalent(const workloads::Workload &wl,
                 const core::GpuConfig &chip, SizeClass sc,
                 const std::string &label)
{
    RunResult skip = workloads::runWorkload(wl, chip, sc,
                                            /*cycle_skip=*/true);
    RunResult step = workloads::runWorkload(wl, chip, sc,
                                            /*cycle_skip=*/false);
    EXPECT_TRUE(skip.stats == step.stats)
        << label << ": SimStats differ between skip and no-skip "
        << "(skip cycles=" << skip.stats.cycles
        << " step cycles=" << step.stats.cycles << ")";
    EXPECT_EQ(skip.verified, step.verified) << label;
    EXPECT_EQ(skip.verify_msg, step.verify_msg) << label;
    EXPECT_EQ(step.skipped_cycles, 0u)
        << label << ": no-skip run must never fast-forward";
    return skip;
}

void
expectEquivalent(const workloads::Workload &wl,
                 const pipeline::SMConfig &cfg, SizeClass sc,
                 unsigned num_sms, const std::string &label)
{
    expectEquivalent(wl, core::GpuConfig::make(cfg, num_sms), sc,
                     label);
}

/** An SBI+SWI chip of @p num_sms SMs with chip overrides @p sets. */
core::GpuConfig
sbiSwiChip(unsigned num_sms, std::initializer_list<const char *> sets)
{
    core::GpuConfig chip =
        core::GpuConfig::make(pipeline::PipelineMode::SBISWI, num_sms);
    for (const char *kv : sets) {
        std::string err;
        EXPECT_TRUE(core::gpuConfigApplyKeyValue(kv, &chip, &err))
            << kv << ": " << err;
    }
    EXPECT_EQ(chip.checkInvariants(), "");
    return chip;
}

/**
 * The benchmark's banked chip: SBI+SWI SMs in front of 8 L2 slices
 * with 32 MSHRs each, 4 DRAM channels with bounded queues and a
 * contended NoC. Unlike the default 1-slice chip, its slice MSHR
 * files hold in-flight misses while SMs sleep.
 */
core::GpuConfig
bankedChip(unsigned num_sms)
{
    return sbiSwiChip(
        num_sms,
        {"l2_slices=8", "l2_mshrs_per_slice=32", "l2_tag_cycles=1",
         "dram_channels=4", "dram_queue_depth=16",
         "dram_bytes_per_cycle_x10=100", "noc_request_latency=2",
         "noc_response_latency=2",
         "noc_port_bytes_per_cycle_x10=320"});
}

/** Launch @p wl on @p chip, stopping at @p max_cycles. */
core::SimStats
launchCapped(const workloads::Workload &wl,
             const core::GpuConfig &chip, SizeClass sc,
             Cycle max_cycles, bool cycle_skip, u64 *skipped)
{
    workloads::Instance inst = wl.instance(sc);
    core::Kernel kernel =
        core::Kernel::compile(inst.raw, inst.compile);
    core::Gpu gpu(chip);
    wl.init(gpu.memory(), sc);
    core::LaunchConfig lc;
    lc.grid_blocks = inst.grid_blocks;
    lc.block_threads = inst.block_threads;
    lc.max_cycles = max_cycles;
    lc.cycle_skip = cycle_skip;
    core::SimStats stats = gpu.launch(kernel, lc);
    *skipped = gpu.skippedCycles();
    return stats;
}

/**
 * Every cell of the fast suite (bench/specs/fast.json): all five
 * machines x the full workload list at Tiny size plus the
 * multi-SM smoke. This is the skip vs --no-skip gate: the whole
 * SimStats of every cell must match between the stepping modes.
 */
TEST(SteppingEquivalence, FastSuiteCells)
{
    runner::MachineRegistry reg;
    std::vector<SweepSpec> sweeps;
    std::string label, err;
    ASSERT_TRUE(runner::loadSpecFile(std::string(SIWI_SOURCE_DIR) +
                                         "/bench/specs/fast.json",
                                     &reg, &sweeps, &label, &err))
        << err;
    ASSERT_FALSE(sweeps.empty());
    for (const CellSpec &cs : runner::expandCells(sweeps)) {
        const SweepSpec &s = sweeps[cs.sweep];
        runner::CellResult a =
            runner::runCell(s, cs.machine, cs.wl, cs.sms,
                            cs.policy, /*cycle_skip=*/true);
        runner::CellResult b =
            runner::runCell(s, cs.machine, cs.wl, cs.sms,
                            cs.policy, /*cycle_skip=*/false);
        EXPECT_TRUE(a.stats == b.stats)
            << s.name << " " << a.machine << " " << a.workload
            << ": SimStats differ between skip and no-skip";
        EXPECT_EQ(a.verified, b.verified) << a.workload;
        EXPECT_EQ(a.ipc, b.ipc) << a.workload;
    }
}

/**
 * On a multi-SM chip several SMs share the launch loop
 * (Gpu::runGrid), each sleeping on its own wake bound, and pull
 * CTAs from the chip scheduler; cover it on every pipeline mode.
 */
TEST(SteppingEquivalence, MultiSmChips)
{
    const workloads::Workload *wl =
        workloads::findWorkload("BFS");
    if (!wl)
        wl = workloads::allWorkloads().front();
    for (pipeline::PipelineMode mode :
         {pipeline::PipelineMode::Baseline,
          pipeline::PipelineMode::Warp64,
          pipeline::PipelineMode::SBI, pipeline::PipelineMode::SWI,
          pipeline::PipelineMode::SBISWI}) {
        pipeline::SMConfig cfg = pipeline::SMConfig::make(mode);
        expectEquivalent(*wl, cfg, SizeClass::Tiny, 4,
                         std::string("4-SM chip mode ") +
                             pipeline::pipelineModeName(mode));
    }
}

/**
 * The banked chip with real slice MSHRs, at 4 and 16 SMs: SMs
 * sleep while their misses queue in the slice MSHR files and the
 * channel queues, and the backend reports no wake bound of its
 * own, so this is where a missing wake source would show. Full
 * size gives each of 4 SMs one CTA; the 16-SM cells need the Chip
 * size to keep every SM busy.
 */
TEST(SteppingEquivalence, BankedChips)
{
    struct Cell
    {
        unsigned sms;
        const char *workload;
        SizeClass size;
    };
    for (const Cell &c : {Cell{4, "BlackScholes", SizeClass::Full},
                          Cell{4, "MatrixMul", SizeClass::Full},
                          Cell{4, "Transpose", SizeClass::Full},
                          Cell{16, "SRAD", SizeClass::Chip},
                          Cell{16, "MatrixMul", SizeClass::Chip}}) {
        const workloads::Workload *wl =
            workloads::findWorkload(c.workload);
        ASSERT_NE(wl, nullptr) << c.workload;
        expectEquivalent(*wl, bankedChip(c.sms), c.size,
                         std::to_string(c.sms) +
                             "-SM banked chip on " + c.workload);
    }
}

/**
 * The fast suite's multi-SM cells (SBI+SWI on MatrixMul and
 * ConvolutionSeparable, Full size, 2 and 4 SMs) on a smaller
 * banked chip: 4 L2 slices with 32 MSHRs each, a 1-cycle tag
 * pipeline, 2 DRAM channels with 16-deep queues and a contended
 * NoC. The fast suite's other cells run on one SM, which these
 * chip keys do not reach. Both runs must also verify.
 */
TEST(SteppingEquivalence, FastSuiteMultiSmCellsOnBankedChip)
{
    for (unsigned sms : {2u, 4u}) {
        core::GpuConfig chip = sbiSwiChip(
            sms, {"l2_slices=4", "l2_mshrs_per_slice=32",
                  "l2_tag_cycles=1", "dram_channels=2",
                  "dram_queue_depth=16", "noc_request_latency=2",
                  "noc_response_latency=2",
                  "noc_port_bytes_per_cycle_x10=320"});
        for (const char *name : {"MatrixMul", "ConvolutionSeparable"}) {
            const workloads::Workload *wl =
                workloads::findWorkload(name);
            ASSERT_NE(wl, nullptr) << name;
            RunResult res = expectEquivalent(
                *wl, chip, SizeClass::Full,
                std::to_string(sms) + "-SM 4-slice chip on " + name);
            EXPECT_TRUE(res.verified) << name << ": " << res.verify_msg;
        }
    }
}

/**
 * A chip launch that hits max_cycles must end every live SM at the
 * chip cycle, sleeping ones included, so the timed-out statistics
 * (per-SM cycles among them) match per-cycle stepping.
 */
TEST(SteppingEquivalence, ChipTimeoutMatchesStepping)
{
    const workloads::Workload *wl =
        workloads::findWorkload("BlackScholes");
    ASSERT_NE(wl, nullptr);
    core::GpuConfig chip = bankedChip(4);
    for (Cycle limit : {Cycle(300), Cycle(1500)}) {
        u64 skipped = 0, stepped = 0;
        core::SimStats skip = launchCapped(
            *wl, chip, SizeClass::Full, limit, true, &skipped);
        core::SimStats step = launchCapped(
            *wl, chip, SizeClass::Full, limit, false, &stepped);
        EXPECT_TRUE(skip.timed_out) << "limit " << limit;
        EXPECT_TRUE(step.timed_out) << "limit " << limit;
        ASSERT_EQ(skip.per_sm.size(), step.per_sm.size());
        for (size_t i = 0; i < skip.per_sm.size(); ++i) {
            EXPECT_EQ(skip.per_sm[i].cycles, step.per_sm[i].cycles)
                << "limit " << limit << " SM " << i;
        }
        EXPECT_TRUE(skip == step)
            << "limit " << limit
            << ": SimStats differ between skip and no-skip";
        EXPECT_GT(skipped, 0u)
            << "limit " << limit << ": no SM slept before the limit";
        EXPECT_EQ(stepped, 0u);
    }
}

/**
 * Randomized machine mutations: start from each canonical machine,
 * apply a handful of random config key=value overrides (through
 * the same field tables spec files use: the SM's, and the chip's
 * for the dram_* keys), keep only configurations that pass
 * checkInvariants, and demand stepping equivalence on a
 * barrier-heavy and a divergent workload. This sweeps wake-source
 * corner cases (tiny MSHR counts, deep latencies, small CCTs) that
 * the canonical machines never exercise.
 */
TEST(SteppingEquivalence, RandomizedMachines)
{
    struct KeyPool
    {
        const char *key;
        std::vector<const char *> values;
    };
    const std::vector<KeyPool> pool = {
        {"mshrs", {"1", "2", "4", "64"}},
        {"write_buffer_entries", {"1", "2", "8"}},
        {"l1_hit_latency", {"1", "3", "9"}},
        {"dram_latency_cycles", {"10", "100", "700"}},
        {"dram_bytes_per_cycle_x10", {"5", "40", "100"}},
        {"exec_latency", {"1", "8", "24"}},
        {"scoreboard_entries", {"1", "2", "6"}},
        {"cct_capacity", {"2", "8", "16"}},
        {"cct_steps_per_cycle", {"1", "2"}},
        {"swi", {"false", "true"}},
        {"delivery_latency", {"0", "2"}},
        {"max_blocks_resident", {"1", "4", "8"}},
        {"lookup_sets", {"1", "2", "4"}},
        {"sched_policy", {"oldest", "rr", "gto", "minpc"}},
    };
    const workloads::Workload *barrier =
        workloads::findWorkload("FastWalshTransform");
    const workloads::Workload *divergent =
        workloads::findWorkload("BFS");
    ASSERT_NE(barrier, nullptr);
    ASSERT_NE(divergent, nullptr);

    Rng rng(20260808);
    int accepted = 0;
    for (int trial = 0; accepted < 12 && trial < 200; ++trial) {
        pipeline::PipelineMode mode = static_cast<
            pipeline::PipelineMode>(rng.below(5));
        pipeline::SMConfig cfg = pipeline::SMConfig::make(mode);
        unsigned muts = 1 + unsigned(rng.below(4));
        std::string label = std::string("mode ") +
                            pipeline::pipelineModeName(mode);
        std::vector<std::string> chip_sets;
        for (unsigned m = 0; m < muts; ++m) {
            const KeyPool &kp = pool[rng.below(
                unsigned(pool.size()))];
            const char *val =
                kp.values[rng.below(unsigned(kp.values.size()))];
            std::string kv =
                std::string(kp.key) + "=" + val;
            std::string err;
            if (kv.starts_with("dram_"))
                chip_sets.push_back(kv);
            else if (!pipeline::smConfigApplyKeyValue(kv, &cfg,
                                                      &err))
                continue; // key invalid for this mode: skip it
            label += " " + kv;
        }
        core::GpuConfig chip = core::GpuConfig::make(cfg, 1);
        for (const std::string &kv : chip_sets) {
            std::string err;
            ASSERT_TRUE(core::gpuConfigApplyKeyValue(kv, &chip, &err))
                << err;
        }
        if (!chip.checkInvariants().empty())
            continue;
        ++accepted;
        const workloads::Workload *wl =
            (accepted % 2) ? barrier : divergent;
        expectEquivalent(*wl, chip, SizeClass::Tiny,
                         label + " on " + wl->name());
    }
    // The acceptance filter must not starve the test.
    EXPECT_GE(accepted, 8);
}

/**
 * The two committed cells (fig8a's SBI+SWI-nc on SortingNetworks,
 * policy.json's SBI/rr on BFS, both Full size) in which a heap
 * tick promotes a cold warp-split into hot slot 1 after that
 * slot's cached issue verdict was derived. No other change to the
 * warp precedes the promotion, so only the heap-maintenance
 * touchWarp() marks the verdict stale; without it the audit
 * panics. No Tiny cell reaches this path.
 */
TEST(SteppingEquivalence, HeapTickPromotionCells)
{
    struct Cell
    {
        pipeline::PipelineMode mode;
        const char *set;
        const char *workload;
    };
    for (const Cell &c :
         {Cell{pipeline::PipelineMode::SBISWI, "sbi_constraints=false",
               "SortingNetworks"},
          Cell{pipeline::PipelineMode::SBI, "sched_policy=rr",
               "BFS"}}) {
        pipeline::SMConfig cfg = pipeline::SMConfig::make(c.mode);
        std::string err;
        ASSERT_TRUE(pipeline::smConfigApplyKeyValue(c.set, &cfg, &err))
            << err;
        const workloads::Workload *wl =
            workloads::findWorkload(c.workload);
        ASSERT_NE(wl, nullptr) << c.workload;
        expectEquivalent(*wl, cfg, SizeClass::Full, 1,
                         std::string(pipeline::pipelineModeName(
                             c.mode)) +
                             " " + c.set + " on " + c.workload);
    }
}

/**
 * The skip machinery must actually engage: a memory-bound kernel
 * spends most of its cycles waiting on DRAM, so a skip-enabled run
 * must fast-forward a significant share of them (this guards
 * against a silent regression that turns skipping into a no-op —
 * equivalence would still hold, speed would not).
 */
TEST(SteppingEquivalence, SkipEngagesOnMemoryBoundKernel)
{
    const workloads::Workload *wl =
        workloads::findWorkload("FastWalshTransform");
    ASSERT_NE(wl, nullptr);
    pipeline::SMConfig cfg =
        pipeline::SMConfig::make(pipeline::PipelineMode::Baseline);
    RunResult res = workloads::runWorkload(
        *wl, cfg, SizeClass::Tiny, 1, /*cycle_skip=*/true);
    ASSERT_TRUE(res.verified) << res.verify_msg;
    EXPECT_GT(res.skipped_cycles, res.stats.cycles / 4)
        << "cycle skipping barely engaged on a memory-bound "
           "kernel";
}

/**
 * Per-SM sleep must engage on a chip: on a 16-SM banked chip most
 * SM-cycles of SRAD are spent waiting on the backend, so the parked
 * SMs must fast-forward over half of the per-SM cycles. Skipping
 * only when every SM is quiet at once reaches about a tenth here,
 * and stepping every SM every cycle none. Guards against a
 * regression back to either (results would still match; speed
 * would not).
 */
TEST(SteppingEquivalence, SkipEngagesOnBankedChip)
{
    const workloads::Workload *wl = workloads::findWorkload("SRAD");
    ASSERT_NE(wl, nullptr);
    RunResult res = workloads::runWorkload(*wl, bankedChip(16),
                                           SizeClass::Chip,
                                           /*cycle_skip=*/true);
    ASSERT_TRUE(res.verified) << res.verify_msg;
    u64 sm_cycles = 0;
    for (const core::SimStats &sm : res.stats.per_sm)
        sm_cycles += sm.cycles;
    EXPECT_GT(res.skipped_cycles, sm_cycles / 2)
        << "per-SM sleep barely engaged on a 16-SM banked chip ("
        << res.skipped_cycles << " of " << sm_cycles
        << " SM-cycles skipped)";
}

/**
 * Per-warp sleep must actually engage, and identically in both
 * stepping modes: warp_sleep_cycles counts warp-cycles parked and
 * is accumulated at wake time from the park cycle, so it is
 * jump-invariant by construction. A run with zero sleep cycles
 * means parking never engaged (equivalence would still hold; the
 * sleep counters the results report would silently read zero).
 */
TEST(SteppingEquivalence, PerWarpSleepEngages)
{
    const workloads::Workload *wl =
        workloads::findWorkload("FastWalshTransform");
    ASSERT_NE(wl, nullptr);
    pipeline::SMConfig cfg =
        pipeline::SMConfig::make(pipeline::PipelineMode::Baseline);
    RunResult skip = workloads::runWorkload(
        *wl, cfg, SizeClass::Tiny, 1, /*cycle_skip=*/true);
    RunResult step = workloads::runWorkload(
        *wl, cfg, SizeClass::Tiny, 1, /*cycle_skip=*/false);
    ASSERT_TRUE(skip.verified) << skip.verify_msg;
    EXPECT_GT(skip.stats.warp_sleep_cycles, 0u)
        << "no warp ever slept on a memory-bound kernel";
    EXPECT_GT(skip.stats.avg_runnable_warps_x10, 0u);
    EXPECT_EQ(skip.stats.warp_sleep_cycles,
              step.stats.warp_sleep_cycles)
        << "sleep accounting must be jump-invariant";
    EXPECT_EQ(skip.stats.runnable_warp_cycles,
              step.stats.runnable_warp_cycles);
}

} // namespace
} // namespace siwi
