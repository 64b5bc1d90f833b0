/**
 * @file
 * Tests for the parallel experiment runner: sweep expansion,
 * filtering, the checked-in scaling spec, the dispatch order, and
 * — the load-bearing property — thread-count independence of the
 * results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "checked_in_spec.hh"
#include "common/log.hh"
#include "runner/experiment_runner.hh"
#include "runner/metrics.hh"
#include "runner/table.hh"

using namespace siwi;
using namespace siwi::runner;
using workloads::SizeClass;

namespace {

/** A 2-machine x 2-workload grid small enough for unit tests. */
SweepSpec
tinyGrid()
{
    SweepSpec s = fig7IrregularTiny();
    s.name = "grid";
    s.filterMachines({"Baseline", "SBI"});
    s.filterWorkloads({"BFS", "Histogram"});
    return s;
}

TEST(Sweep, ExpandsInCanonicalOrder)
{
    SweepSpec s = tinyGrid();
    ASSERT_EQ(s.cellCount(), 4u);
    std::vector<CellSpec> cells = expandCells({s});
    ASSERT_EQ(cells.size(), 4u);
    // Workload-major, machine-minor.
    EXPECT_EQ(cells[0].wl, 0u);
    EXPECT_EQ(cells[0].machine, 0u);
    EXPECT_EQ(cells[1].wl, 0u);
    EXPECT_EQ(cells[1].machine, 1u);
    EXPECT_EQ(cells[2].wl, 1u);
    EXPECT_EQ(cells[2].machine, 0u);
}

TEST(Sweep, FiltersDropUnknownNames)
{
    SweepSpec s = fig7IrregularTiny();
    size_t all = s.machines.size();
    s.filterMachines({"Baseline", "NoSuchMachine"});
    EXPECT_EQ(s.machines.size(), 1u);
    s = fig7IrregularTiny();
    s.filterMachines({});
    EXPECT_EQ(s.machines.size(), all); // empty filter keeps all
}

/** Every sweep of bench/specs/fast.json. */
std::vector<SweepSpec>
fastSweeps()
{
    MachineRegistry reg;
    std::vector<SweepSpec> sweeps;
    std::string label, err;
    EXPECT_TRUE(loadSpecFile(std::string(SIWI_SOURCE_DIR) +
                                 "/bench/specs/fast.json",
                             &reg, &sweeps, &label, &err))
        << err;
    return sweeps;
}

TEST(Sweep, NarrowMatchesNamesAsSpecFilesDo)
{
    // Machine names match in any case, as a spec's "machines"
    // entries do; scaling_smoke has no SBI and is dropped.
    std::vector<SweepSpec> sweeps = fastSweeps();
    EXPECT_EQ(narrowSweeps(&sweeps, {"sbi"}, {}), "");
    ASSERT_EQ(sweeps.size(), 2u);
    EXPECT_EQ(expandCells(sweeps).size(), 21u);
    for (const SweepSpec &s : sweeps) {
        ASSERT_EQ(s.machines.size(), 1u);
        EXPECT_EQ(s.machines[0].name, "SBI");
    }

    // Workload names match exactly, as findWorkload does.
    sweeps = fastSweeps();
    EXPECT_EQ(narrowSweeps(&sweeps, {}, {"BFS"}), "");
    ASSERT_EQ(sweeps.size(), 1u);
    EXPECT_EQ(sweeps[0].name, "fig7_irregular");
    EXPECT_EQ(sweeps[0].cellCount(), 5u);
    sweeps = fastSweeps();
    EXPECT_EQ(narrowSweeps(&sweeps, {}, {"bfs"}),
              "workload 'bfs' is in no sweep");

    // Empty lists keep everything.
    sweeps = fastSweeps();
    EXPECT_EQ(narrowSweeps(&sweeps, {}, {}), "");
    EXPECT_EQ(expandCells(sweeps).size(), 109u);
}

TEST(Sweep, NarrowNeverDropsAValueSilently)
{
    // One value that matches nothing fails the selection, even
    // next to one that matches.
    std::vector<SweepSpec> sweeps = fastSweeps();
    EXPECT_EQ(narrowSweeps(&sweeps, {"SBI", "nope"}, {}),
              "machine 'nope' is in no sweep");
    sweeps = fastSweeps();
    EXPECT_EQ(narrowSweeps(&sweeps, {}, {"BFS", "Nope"}),
              "workload 'Nope' is in no sweep");

    // Values that each match a sweep, but never the same one.
    SweepSpec regular = checkedInSweep("fig7.json", "fig7_regular");
    regular.filterMachines({"SWI"});
    sweeps = {tinyGrid(), regular};
    EXPECT_EQ(narrowSweeps(&sweeps, {"SWI"}, {"BFS"}),
              "selection matches no cells");
}

TEST(Suites, ScalingSweepCoversTheAcceptanceGrid)
{
    SweepSpec s = checkedInSweep("scaling.json", "fig_scaling");
    EXPECT_EQ(s.sms, (std::vector<unsigned>{1u, 2u, 4u, 8u}));
    EXPECT_GE(s.wls.size(), 4u);
    EXPECT_EQ(s.machines.size(), 2u);

    SweepSpec b = checkedInSweep("scaling.json", "fig_scaling_banked");
    EXPECT_EQ(b.sms, (std::vector<unsigned>{1u, 2u, 4u, 8u, 16u,
                                            32u, 64u}));
    EXPECT_EQ(b.machines.size(), 2u);
    for (const MachineSpec &m : b.machines) {
        EXPECT_FALSE(m.chip_sets.empty()) << m.name;
        // The overrides must survive resolution onto the chip.
        core::GpuConfig chip =
            resolvedCellConfig(b, 0, b.sms.size() - 1, 0);
        EXPECT_EQ(chip.l2.slices, 8u);
        EXPECT_EQ(chip.dram.channels, 4u);
        EXPECT_EQ(chip.num_sms, 64u);
        // Aggregate DRAM bandwidth is pinned per channel, exempt
        // from the legacy min(num_sms, 4) scaling.
        EXPECT_EQ(chip.dram.bytes_per_cycle_x10, 100u);
        EXPECT_TRUE(chip.checkInvariants().empty())
            << chip.checkInvariants();
    }
}

TEST(Runner, RunCellMatchesRunWorkload)
{
    SweepSpec s = tinyGrid();
    CellResult c = runCell(s, 1, 0);
    EXPECT_EQ(c.machine, "SBI");
    EXPECT_EQ(c.workload, "BFS");
    EXPECT_EQ(c.size, "tiny");
    EXPECT_TRUE(c.verified) << c.verify_msg;
    workloads::RunResult ref = workloads::runWorkload(
        *s.wls[0], s.machines[1].config, s.size);
    EXPECT_EQ(c.stats, ref.stats);
    EXPECT_DOUBLE_EQ(c.ipc, ref.stats.ipc());
}

/**
 * A DRAM key reaches a one-SM cell, whose private channel is built
 * from the chip's DRAM block (the only one there is).
 */
TEST(Runner, DramKeyReachesOneSmCell)
{
    SweepSpec s = checkedInSweep("fig7.json", "fig7_regular");
    s.size = SizeClass::Tiny;
    s.filterMachines({"Baseline"});
    s.filterWorkloads({"MatrixMul"});
    ASSERT_EQ(s.cellCount(), 1u);
    const CellResult paper = runCell(s, 0, 0);

    std::string err;
    ASSERT_TRUE(machineApplyKeyValue(&s.machines[0],
                                     "dram_latency_cycles=30", &err))
        << err;
    EXPECT_EQ(resolvedCellConfig(s, 0, 0, 0).dram.latency_cycles,
              30u);
    const CellResult fast = runCell(s, 0, 0);
    EXPECT_TRUE(paper.verified) << paper.verify_msg;
    EXPECT_TRUE(fast.verified) << fast.verify_msg;
    EXPECT_NE(fast.stats.cycles, paper.stats.cycles);
}

/**
 * The swi key is the switch for cascaded issue (paper 4): turning
 * it off on SWI, or on on SBI, changes the cell.
 */
TEST(Runner, SwiKeySwitchesCascadedIssue)
{
    SweepSpec s = checkedInSweep("fig7.json", "fig7_regular");
    s.size = SizeClass::Tiny;
    s.filterMachines({"SBI", "SWI"});
    s.filterWorkloads({"MatrixMul"});
    ASSERT_EQ(s.cellCount(), 2u);
    for (size_t m = 0; m < 2; ++m) {
        const CellResult plain = runCell(s, m, 0);
        const bool swi = s.machines[m].config.swi;
        SweepSpec flipped = s;
        std::string err;
        ASSERT_TRUE(machineApplyKeyValue(
            &flipped.machines[m], swi ? "swi=false" : "swi=true",
            &err))
            << err;
        const CellResult c = runCell(flipped, m, 0);
        EXPECT_TRUE(plain.verified) << plain.verify_msg;
        EXPECT_TRUE(c.verified) << c.verify_msg;
        EXPECT_NE(c.stats, plain.stats)
            << s.machines[m].name << " with swi=" << !swi;
    }
}

TEST(Runner, ResultsIdenticalAcrossThreadCounts)
{
    setLogQuiet(true);
    const std::vector<SweepSpec> sweeps = {tinyGrid()};

    RunOptions serial;
    serial.jobs = 1;
    serial.suite_label = "determinism";
    Results a = runSweeps(sweeps, serial);

    RunOptions parallel = serial;
    parallel.jobs = 2;
    Results b = runSweeps(sweeps, parallel);

    ASSERT_EQ(a.cells.size(), 4u);
    EXPECT_EQ(a, b);
    // Including the serialized bytes the CI gate diffs.
    EXPECT_EQ(a.toJsonText(), b.toJsonText());

    RunOptions wide = serial;
    wide.jobs = 8; // more threads than cells
    EXPECT_EQ(runSweeps(sweeps, wide), a);
}

TEST(Sweep, SmsAxisExpandsCells)
{
    SweepSpec s = tinyGrid();
    s.sms = {1, 2};
    EXPECT_EQ(s.cellCount(), 8u);
    std::vector<CellSpec> cells = expandCells({s});
    ASSERT_EQ(cells.size(), 8u);
    // Workload-major, then SM count, then machine.
    EXPECT_EQ(cells[0].sms, 0u);
    EXPECT_EQ(cells[1].sms, 0u);
    EXPECT_EQ(cells[2].sms, 1u);
    EXPECT_EQ(cells[2].machine, 0u);
    EXPECT_EQ(cells[2].wl, 0u);
    EXPECT_EQ(cells[4].wl, 1u);
}

TEST(Runner, MultiSmCellCarriesLabelAndCount)
{
    setLogQuiet(true);
    SweepSpec s = tinyGrid();
    s.sms = {1, 2};
    CellResult c = runCell(s, 1, 0, 1);
    EXPECT_EQ(c.machine, "SBI@2sm");
    EXPECT_EQ(c.num_sms, 2u);
    EXPECT_TRUE(c.verified) << c.verify_msg;
    EXPECT_EQ(c.stats.num_sms, 2u);
    ASSERT_EQ(c.stats.per_sm.size(), 2u);

    // Single-SM cells keep the plain label (baseline continuity).
    CellResult one = runCell(s, 1, 0, 0);
    EXPECT_EQ(one.machine, "SBI");
    EXPECT_EQ(one.num_sms, 1u);
    EXPECT_TRUE(one.stats.per_sm.empty());
}

TEST(Runner, MultiSmSweepIdenticalAcrossThreadCounts)
{
    setLogQuiet(true);
    SweepSpec grid = tinyGrid();
    grid.sms = {1, 2, 4};
    const std::vector<SweepSpec> sweeps = {grid};

    RunOptions serial;
    serial.jobs = 1;
    serial.suite_label = "multi-sm determinism";
    Results a = runSweeps(sweeps, serial);

    RunOptions parallel = serial;
    parallel.jobs = 8;
    Results b = runSweeps(sweeps, parallel);

    ASSERT_EQ(a.cells.size(), 12u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.toJsonText(), b.toJsonText());
    for (const CellResult &c : a.cells)
        EXPECT_TRUE(c.verified)
            << c.machine << " " << c.workload << ": "
            << c.verify_msg;
}

TEST(Runner, BankedChipIdenticalAcrossThreadCounts)
{
    setLogQuiet(true);
    // 16-SM cells over the banked chip topology (8 L2 slices, 4
    // DRAM channels, contended NoC) — the configuration class the
    // scaling CI smoke runs. Identity across worker-thread counts
    // gates that the lockstep SM stepping order (port order = SM
    // index order) and the passive banked backend leave cells
    // pure: no shared state, no run-order sensitivity.
    SweepSpec s = checkedInSweep("scaling.json", "fig_scaling_banked");
    s.size = SizeClass::Full;
    s.name = "banked_grid";
    s.filterWorkloads({"MatrixMul", "ConvolutionSeparable"});
    s.sms = {4, 16};
    const std::vector<SweepSpec> sweeps = {s};

    RunOptions serial;
    serial.jobs = 1;
    serial.suite_label = "banked determinism";
    Results a = runSweeps(sweeps, serial);

    RunOptions parallel = serial;
    parallel.jobs = 8;
    Results b = runSweeps(sweeps, parallel);

    ASSERT_EQ(a.cells.size(), 8u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.toJsonText(), b.toJsonText());
    for (const CellResult &c : a.cells) {
        EXPECT_TRUE(c.verified)
            << c.machine << " " << c.workload << ": "
            << c.verify_msg;
        // Schema-v5 topology breakdowns, sized by the resolved
        // chip and summing to the chip-level scalars.
        ASSERT_EQ(c.stats.l2_slices.size(), 8u);
        ASSERT_EQ(c.stats.dram_channels.size(), 4u);
        ASSERT_EQ(c.stats.noc_ports.size(), size_t(c.num_sms));
        u64 hits = 0, misses = 0, tx = 0;
        for (const mem::L2SliceStats &sl : c.stats.l2_slices) {
            hits += sl.hits;
            misses += sl.misses;
        }
        for (const mem::DramStats &ch : c.stats.dram_channels)
            tx += ch.transactions;
        EXPECT_EQ(hits, c.stats.l2_hits);
        EXPECT_EQ(misses, c.stats.l2_misses);
        EXPECT_EQ(tx, c.stats.dram_transactions);
    }
}

TEST(Runner, CellOrderIndependentOfJobCount)
{
    setLogQuiet(true);
    const std::vector<SweepSpec> sweeps = {tinyGrid()};
    RunOptions opts;
    opts.jobs = 3;
    Results r = runSweeps(sweeps, opts);
    ASSERT_EQ(r.cells.size(), 4u);
    EXPECT_EQ(r.cells[0].machine, "Baseline");
    EXPECT_EQ(r.cells[0].workload, "BFS");
    EXPECT_EQ(r.cells[1].machine, "SBI");
    EXPECT_EQ(r.cells[1].workload, "BFS");
    EXPECT_EQ(r.cells[2].machine, "Baseline");
    EXPECT_EQ(r.cells[2].workload, "Histogram");
}

/** Threads x raw instructions of @p c's kernel instance. */
u64
staticWork(const std::vector<SweepSpec> &sweeps, const CellSpec &c)
{
    const SweepSpec &s = sweeps[c.sweep];
    const workloads::Instance inst = s.wls[c.wl]->instance(s.size);
    return u64(inst.grid_blocks) * inst.block_threads *
           inst.raw.size();
}

TEST(Dispatch, FastSpecStartsHeaviestCellsFirst)
{
    const std::vector<SweepSpec> sweeps = fastSweeps();
    const std::vector<CellSpec> cells = expandCells(sweeps);
    const std::vector<size_t> order = dispatchOrder(sweeps, cells);

    // A permutation of the cells.
    ASSERT_EQ(order.size(), 109u);
    std::vector<size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    for (size_t i = 0; i < sorted.size(); ++i)
        ASSERT_EQ(sorted[i], i);

    // The four Full-size scaling_smoke cells first, the
    // ConvolutionSeparable pair (287 instructions) before the
    // MatrixMul pair, each pair in SM-count order.
    const char *first[] = {"ConvolutionSeparable",
                           "ConvolutionSeparable", "MatrixMul",
                           "MatrixMul"};
    for (size_t k = 0; k < 4; ++k) {
        const CellSpec &c = cells[order[k]];
        EXPECT_EQ(sweeps[c.sweep].name, "scaling_smoke") << k;
        EXPECT_STREQ(sweeps[c.sweep].wls[c.wl]->name(), first[k]);
        EXPECT_EQ(c.sms, k % 2) << k;
    }

    // Descending static work; equal estimates in canonical order.
    for (size_t k = 1; k < order.size(); ++k) {
        const u64 prev = staticWork(sweeps, cells[order[k - 1]]);
        const u64 cur = staticWork(sweeps, cells[order[k]]);
        EXPECT_GE(prev, cur) << k;
        if (prev == cur) {
            EXPECT_LT(order[k - 1], order[k]) << k;
        }
    }
}

TEST(Dispatch, HeaviestFirstGridIdenticalAcrossThreadCounts)
{
    setLogQuiet(true);
    // The tiny grid, then a Full-size two-SM ConvolutionSeparable
    // sweep: the last cell in canonical order starts first.
    SweepSpec heavy = checkedInSweep("fast.json", "scaling_smoke");
    heavy.filterWorkloads({"ConvolutionSeparable"});
    heavy.sms = {2};
    const std::vector<SweepSpec> sweeps = {tinyGrid(), heavy};
    const std::vector<CellSpec> cells = expandCells(sweeps);
    ASSERT_EQ(cells.size(), 5u);
    EXPECT_EQ(dispatchOrder(sweeps, cells)[0], 4u);

    // Each result sits in its canonical slot.
    Results expected;
    expected.suite = "dispatch";
    expected.machines = machineRecords(sweeps);
    for (const CellSpec &c : cells)
        expected.cells.push_back(runCell(sweeps[c.sweep], c.machine,
                                         c.wl, c.sms, c.policy));

    for (unsigned jobs : {1u, 2u, 8u}) {
        SCOPED_TRACE(jobs);
        RunOptions opts;
        opts.jobs = jobs;
        opts.suite_label = "dispatch";
        const Results r = runSweeps(sweeps, opts);
        EXPECT_EQ(r, expected);
        EXPECT_EQ(r.toJsonText(), expected.toJsonText());
    }
}

TEST(Sweep, PolicyAxisExpandsCells)
{
    SweepSpec s = tinyGrid();
    s.policies = {frontend::SchedPolicyKind::OldestFirst,
                  frontend::SchedPolicyKind::GreedyThenOldest};
    EXPECT_EQ(s.cellCount(), 8u);
    std::vector<CellSpec> cells = expandCells({s});
    ASSERT_EQ(cells.size(), 8u);
    // Workload-major, then policy, then machine.
    EXPECT_EQ(cells[0].policy, 0u);
    EXPECT_EQ(cells[1].policy, 0u);
    EXPECT_EQ(cells[2].policy, 1u);
    EXPECT_EQ(cells[2].machine, 0u);
    EXPECT_EQ(cells[2].wl, 0u);
    EXPECT_EQ(cells[4].wl, 1u);
}

TEST(Runner, PolicyCellCarriesLabelAndName)
{
    setLogQuiet(true);
    SweepSpec s = tinyGrid();
    s.policies = {frontend::SchedPolicyKind::OldestFirst,
                  frontend::SchedPolicyKind::RoundRobin};
    CellResult c = runCell(s, 1, 0, 0, 1);
    EXPECT_EQ(c.machine, "SBI/rr");
    EXPECT_EQ(c.policy, "rr");
    EXPECT_TRUE(c.verified) << c.verify_msg;

    // Oldest-first cells keep the plain label (baseline
    // continuity) but still record their policy.
    CellResult plain = runCell(s, 1, 0, 0, 0);
    EXPECT_EQ(plain.machine, "SBI");
    EXPECT_EQ(plain.policy, "oldest");
}

TEST(Runner, GoldenMachinePolicyGridDeterministic)
{
    // The golden-stats grid: one small workload under all five
    // paper machines x all four scheduling policies, identical
    // for any -j, all verified, with the oldest-first column
    // reproducing the plain fig7 cells bit-exactly.
    setLogQuiet(true);
    SweepSpec s = fig7IrregularTiny();
    s.name = "golden";
    s.filterWorkloads({"BFS"});
    s.policies.clear();
    for (size_t i = 0; i < std::size(frontend::sched_policy_names);
         ++i)
        s.policies.push_back(frontend::SchedPolicyKind(i));
    ASSERT_EQ(s.cellCount(), 20u);

    RunOptions serial;
    serial.jobs = 1;
    serial.suite_label = "golden";
    Results a = runSweeps({s}, serial);

    RunOptions parallel = serial;
    parallel.jobs = 4;
    Results b = runSweeps({s}, parallel);

    ASSERT_EQ(a.cells.size(), 20u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.toJsonText(), b.toJsonText());

    unsigned distinct_from_oldest = 0;
    for (const CellResult &c : a.cells) {
        EXPECT_TRUE(c.verified)
            << c.machine << ": " << c.verify_msg;
        EXPECT_FALSE(c.timed_out) << c.machine;
        if (c.policy == "oldest") {
            // Bit-identical to the plain fig7 cell.
            SweepSpec plain = fig7IrregularTiny();
            plain.filterWorkloads({"BFS"});
            size_t mi = 0;
            while (plain.machines[mi].name != c.machine)
                ++mi;
            CellResult ref = runCell(plain, mi, 0);
            EXPECT_EQ(c.stats, ref.stats) << c.machine;
        } else {
            const CellResult *oldest = a.find(
                "golden",
                c.machine.substr(0, c.machine.find('/')), "BFS");
            ASSERT_NE(oldest, nullptr) << c.machine;
            EXPECT_EQ(c.stats.threads_launched,
                      oldest->stats.threads_launched);
            if (c.stats.cycles != oldest->stats.cycles)
                ++distinct_from_oldest;
        }
    }
    // The policy axis must actually change schedules somewhere in
    // the grid, or it is not a real axis.
    EXPECT_GE(distinct_from_oldest, 3u);
}

TEST(Table, FormatsSweepWithGmeanRow)
{
    setLogQuiet(true);
    RunOptions opts;
    opts.jobs = 2;
    Results r = runSweeps({tinyGrid()}, opts);
    std::string table = formatSweepTable(r, "grid");
    EXPECT_NE(table.find("Baseline"), std::string::npos);
    EXPECT_NE(table.find("SBI"), std::string::npos);
    EXPECT_NE(table.find("BFS"), std::string::npos);
    EXPECT_NE(table.find("Gmean"), std::string::npos);

    // The speedup row: each column's Gmean over the first
    // column's, so it starts at 1.000.
    const std::string label = "Speedup vs Baseline";
    size_t at = table.find(label);
    ASSERT_NE(at, std::string::npos) << table;
    std::istringstream row(
        table.substr(at + label.size(),
                     table.find('\n', at) - at - label.size()));
    std::vector<double> gmeans;
    for (const char *m : {"Baseline", "SBI"}) {
        std::vector<double> ipc;
        for (const CellResult &c : r.cells) {
            if (c.machine == m && !c.excluded_from_means &&
                !c.timed_out)
                ipc.push_back(c.ipc);
        }
        gmeans.push_back(geomean(ipc));
    }
    ASSERT_GT(gmeans[0], 0.0);
    std::vector<std::string> values;
    for (std::string v; row >> v;)
        values.push_back(v);
    ASSERT_EQ(values.size(), gmeans.size()) << table;
    EXPECT_EQ(values[0], "1.000");
    for (size_t i = 0; i < gmeans.size(); ++i) {
        char want[32];
        std::snprintf(want, sizeof(want), "%.3f",
                      gmeans[i] / gmeans[0]);
        EXPECT_EQ(values[i], want) << table;
    }
}

TEST(Table, TimedOutCellRendersToMarkerNotIpc)
{
    Results r;
    CellResult a;
    a.sweep = "s";
    a.machine = "M";
    a.workload = "A";
    a.verified = true;
    a.ipc = 5.0;
    CellResult b = a;
    b.workload = "B";
    b.timed_out = true;
    b.ipc = 3.33; // plausible-looking, must not be printed
    r.cells = {a, b};

    std::string table = formatSweepTable(r, "s");
    EXPECT_NE(table.find("T/O"), std::string::npos);
    EXPECT_EQ(table.find("3.33"), std::string::npos);
    EXPECT_NE(table.find("timed out"), std::string::npos);
    // One column: nothing to compare against.
    EXPECT_EQ(table.find("Speedup"), std::string::npos) << table;

    // A first column whose every cell timed out has Gmean 0: no
    // speedup row rather than a division by zero.
    CellResult ref_a = a;
    ref_a.machine = "Ref";
    ref_a.timed_out = true;
    CellResult ref_b = ref_a;
    ref_b.workload = "B";
    r.cells = {ref_a, a, ref_b, b};
    table = formatSweepTable(r, "s");
    EXPECT_NE(table.find("Ref"), std::string::npos) << table;
    EXPECT_EQ(table.find("Speedup"), std::string::npos) << table;
}

} // namespace
