/**
 * @file
 * Component microbenchmarks (google-benchmark): HCT sorter network,
 * CCT insertion, mask-inclusion lookup, scoreboard checks, cache
 * accesses, and end-to-end simulator throughput.
 */

#include <benchmark/benchmark.h>

#include "core/siwi.hh"
#include "divergence/hct.hh"
#include "mem/cache.hh"
#include "pipeline/mask_lookup.hh"
#include "pipeline/scoreboard.hh"

using namespace siwi;

namespace {

void
BM_HctSorter(benchmark::State &state)
{
    divergence::SorterEntry a, b, c;
    a.pc = 7;
    a.mask = LaneMask(0x0f);
    a.valid = true;
    a.id = 1;
    b.pc = 3;
    b.mask = LaneMask(0xf0);
    b.valid = true;
    b.id = 2;
    c.pc = 7;
    c.mask = LaneMask(0xf00);
    c.valid = true;
    c.id = 3;
    for (auto _ : state) {
        auto r = divergence::hctSort(a, b, c);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_HctSorter);

void
BM_MaskLookup(benchmark::State &state)
{
    unsigned sets = unsigned(state.range(0));
    pipeline::MaskLookup ml(16, sets);
    std::vector<pipeline::LookupCandidate> cands;
    Rng rng(1);
    for (WarpId w = 0; w < 16; ++w) {
        pipeline::LookupCandidate c;
        c.warp = w;
        c.mask = LaneMask(rng.next() & 0xffffull);
        c.same_unit = true;
        c.other_unit_free = (w % 3) == 0;
        cands.push_back(c);
    }
    for (auto _ : state) {
        auto r = ml.pick(3, LaneMask(0xff00ull), cands);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_MaskLookup)->Arg(1)->Arg(2)->Arg(8)->Arg(16);

void
BM_ScoreboardConflictCheck(benchmark::State &state)
{
    pipeline::Scoreboard sb(16, 6);
    for (unsigned i = 0; i < 6; ++i)
        sb.allocate(3, RegIdx(i), LaneMask(0xffull << i));
    isa::Instruction inst;
    inst.op = isa::Opcode::IMAD;
    inst.dst = 7;
    inst.sa = 2;
    inst.sb = 4;
    inst.sc = 5;
    u64 hazard = inst.hazardMask(); // decoded once, at fetch
    for (auto _ : state) {
        bool c = sb.conflicts(3, hazard, LaneMask(0xf0f0ull));
        benchmark::DoNotOptimize(c);
    }
}
BENCHMARK(BM_ScoreboardConflictCheck);

void
BM_CacheAccess(benchmark::State &state)
{
    mem::L1Cache cache{mem::CacheConfig{}};
    for (Addr a = 0; a < 48 * 1024; a += 128)
        cache.fill(a);
    Addr a = 0;
    for (auto _ : state) {
        bool hit = cache.access(a % (48 * 1024));
        benchmark::DoNotOptimize(hit);
        a += 128;
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // End-to-end simulated-cycles-per-second on a divergent kernel.
    auto mode = state.range(0) == 0 ? pipeline::PipelineMode::Baseline
                                    : pipeline::PipelineMode::SBISWI;
    const workloads::Workload *wl =
        workloads::findWorkload("Eigenvalues");
    u64 cycles = 0;
    for (auto _ : state) {
        auto res = workloads::runWorkload(
            *wl, pipeline::SMConfig::make(mode),
            workloads::SizeClass::Tiny);
        cycles += res.stats.cycles;
        benchmark::DoNotOptimize(res.stats.cycles);
    }
    state.counters["sim_cycles/s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
