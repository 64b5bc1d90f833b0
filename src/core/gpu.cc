#include "core/gpu.hh"

#include <algorithm>
#include <memory>

#include "common/bits.hh"
#include "common/log.hh"
#include "core/config_io.hh"

namespace siwi::core {

GpuConfig
GpuConfig::make(pipeline::PipelineMode mode, unsigned num_sms)
{
    return make(pipeline::SMConfig::make(mode), num_sms);
}

GpuConfig
GpuConfig::make(const pipeline::SMConfig &sm, unsigned num_sms)
{
    GpuConfig cfg;
    cfg.sm = sm;
    cfg.num_sms = num_sms;
    // cfg.dram starts as the paper's per-SM channel. One channel
    // serves the whole chip: bandwidth grows with the SM count but
    // tops out at 4x the paper's 10 GB/s, so larger chips start
    // contending for it.
    cfg.dram.bytes_per_cycle_x10 *= std::min(num_sms, 4u);
    return cfg;
}

std::string
GpuConfig::checkInvariants() const
{
    std::string sm_err = sm.checkInvariants();
    if (!sm_err.empty())
        return sm_err;
    if (num_sms < 1)
        return "num_sms must be at least 1";
    if (dram.bytes_per_cycle_x10 < 1)
        return "dram_bytes_per_cycle_x10 must be at least 1";
    // Chip counts that size storage, bounded like the SM's.
    std::string range = checkRanges(*this, gpuConfigFields());
    if (!range.empty())
        return range;
    if (num_sms > 1) {
        // The shared L2 reuses the set-associative tag array, so
        // mirror its constructor asserts too. Its blocks are the
        // L1's.
        u32 l2_blocks = l2.size_bytes / sm.mem.l1.block_bytes;
        if (l2.ways < 1 || l2_blocks < l2.ways ||
            l2_blocks % l2.ways != 0)
            return "l2_size_bytes must be a whole number of "
                   "sets (a multiple of l2_ways * "
                   "l1_block_bytes)";
        // Banked topology: the interleaving hashes XOR-fold
        // power-of-two digits, and each slice must own a whole
        // number of sets of the shared capacity.
        if (!isPow2(l2.slices))
            return "l2_slices must be a nonzero power of two";
        u32 l2_sets = l2_blocks / l2.ways;
        if (l2_sets % l2.slices != 0)
            return "l2_slices must divide the shared L2 set "
                   "count (l2_size_bytes / l1_block_bytes / "
                   "l2_ways)";
        if (!isPow2(dram.channels))
            return "dram_channels must be a nonzero power of two";
    }
    return {};
}

void
GpuConfig::validate() const
{
    std::string err = checkInvariants();
    siwi_assert(err.empty(), err);
}

Gpu::Gpu(const pipeline::SMConfig &cfg)
    : Gpu(GpuConfig::make(cfg, 1))
{
}

Gpu::Gpu(const GpuConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

SimStats
Gpu::launch(const Kernel &kernel, const LaunchConfig &lc)
{
    return launchTraced(kernel, lc, nullptr);
}

SimStats
Gpu::launchTraced(const Kernel &kernel, const LaunchConfig &lc,
                  pipeline::SM::TraceHook hook)
{
    bool timed_out = false;
    if (cfg_.num_sms == 1) {
        // The paper's setup: one SM on a private DRAM channel. The
        // SM's own statistics are the launch's, with no per-SM
        // breakdown.
        mem::DramBackend backend(cfg_.dram);
        SimStats stats = std::move(
            runGrid(kernel, lc, hook, backend, &timed_out).front());
        stats.timed_out = timed_out;
        stats.dram_transactions = backend.dramStats().transactions;
        stats.dram_bytes = backend.dramStats().bytes;
        return stats;
    }

    mem::BankedL2 backend(cfg_.l2, cfg_.sm.mem.l1.block_bytes,
                          cfg_.dram, cfg_.noc, cfg_.num_sms);
    SimStats agg = SimStats::aggregate(
        runGrid(kernel, lc, hook, backend, &timed_out));
    agg.timed_out = timed_out;
    // Chip-level backend counters: reported once, from the shared
    // backend itself (per-SM stats keep them zero), with the
    // schema-v5 per-slice/channel/port breakdowns alongside the
    // scalar totals.
    agg.l2_hits = backend.stats().hits;
    agg.l2_misses = backend.stats().misses;
    agg.dram_transactions = backend.dramStats().transactions;
    agg.dram_bytes = backend.dramStats().bytes;
    for (u32 s = 0; s < backend.numSlices(); ++s)
        agg.l2_slices.push_back(backend.sliceStats(s));
    for (u32 c = 0; c < backend.numChannels(); ++c)
        agg.dram_channels.push_back(backend.channelStats(c));
    for (unsigned p = 0; p < backend.numPorts(); ++p)
        agg.noc_ports.push_back(backend.portStats(p));
    return agg;
}

std::vector<SimStats>
Gpu::runGrid(const Kernel &kernel, const LaunchConfig &lc,
             const pipeline::SM::TraceHook &hook,
             mem::MemoryBackend &backend, bool *timed_out)
{
    skipped_cycles_ = 0;
    failure_.clear();
    const unsigned n = cfg_.num_sms;

    // One dispatcher per launch, shared by its SMs: a lone SM
    // fills every resident slot at cycle 0, chip SMs take one CTA
    // per cycle (see pipeline::CtaDispatch).
    pipeline::CtaDispatch ctas{.grid_blocks = lc.grid_blocks,
                               .one_per_cycle = n > 1,
                               .next = 0};
    std::vector<std::unique_ptr<pipeline::SM>> sms;
    sms.reserve(n);
    for (unsigned i = 0; i < n; ++i) {
        sms.push_back(std::make_unique<pipeline::SM>(
            cfg_.sm, memory_, backend, i, kernel.program(),
            lc.block_threads, ctas));
        if (hook)
            sms.back()->setTraceHook(hook);
    }

    // Lockstep cycle loop: within a cycle, SM order fixes the
    // order of shared-backend requests, which keeps multi-SM
    // timing deterministic.
    //
    // With cycle skipping, each SM sleeps on its own, one level up
    // from the per-warp parking inside the SM: a quiet step()
    // sets the SM's wake_at to its nextWake(), and a chip cycle
    // steps, in index order, only the SMs whose wake_at is due.
    // A sleeping SM cannot be affected by the others before its
    // wake: a quiet step means it had no room for a CTA (or already
    // saw the grid run dry), so it does not poll the dispatcher,
    // and it issues no memory request, so it neither reads nor
    // changes the shared backend or the memory image. The SMs that
    // do step therefore see the same request order as per-cycle
    // stepping. A sleeping SM's clock catches up to the chip cycle
    // (skipTo) when it is next stepped; done SMs keep their frozen
    // clocks, exactly as when they simply stop being stepped. When
    // no SM is due, the chip clock jumps to the earliest wake_at.
    //
    // The next cycle each SM is stepped; no_wake once it is done.
    std::vector<Cycle> wake_at(n, 0);
    unsigned live = 0;
    for (unsigned i = 0; i < n; ++i) {
        if (sms[i]->done())
            wake_at[i] = no_wake;
        else
            ++live;
    }

    Cycle cycle = 0;
    while (live > 0) {
        if (cycle >= lc.max_cycles) {
            warn("chip cycle limit hit at ", cycle);
            *timed_out = true;
            // Sleeping SMs end at the chip cycle, as if stepped.
            for (auto &sm : sms) {
                if (!sm->done())
                    sm->skipTo(cycle);
            }
            break;
        }
        Cycle next = no_wake;
        for (unsigned i = 0; i < n; ++i) {
            if (wake_at[i] <= cycle) {
                pipeline::SM &sm = *sms[i];
                sm.skipTo(cycle);
                wake_at[i] = cycle + 1;
                if (sm.step()) {
                    // Only a step that made progress can finish an
                    // SM, or find it stuck for good.
                    if (!sm.failure().empty()) {
                        failure_ = sm.failure();
                        break;
                    }
                    if (sm.done()) {
                        wake_at[i] = no_wake;
                        --live;
                    }
                } else if (lc.cycle_skip) {
                    // Quiet: re-stepping changes nothing before the
                    // wake.
                    wake_at[i] = std::max(sm.nextWake(), cycle + 1);
                }
            }
            next = std::min(next, wake_at[i]);
        }
        if (!failure_.empty())
            break;
        cycle = std::min(next, lc.max_cycles);
    }

    std::vector<SimStats> per_sm;
    per_sm.reserve(n);
    for (auto &sm : sms) {
        per_sm.push_back(sm->finalizeStats());
        skipped_cycles_ += sm->skippedCycles();
    }
    return per_sm;
}

} // namespace siwi::core
