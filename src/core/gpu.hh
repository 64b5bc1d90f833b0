/**
 * @file
 * Gpu: the top-level public entry point of the library.
 *
 * One Gpu = one chip: `num_sms` SM instances plus a global memory
 * image shared across launches. Each launch builds the chip's
 * memory backend and steps its SMs through one lockstep loop. The
 * paper simulates a single SM on a private DRAM channel, and that
 * remains the default (`Gpu(SMConfig)`). A multi-SM chip puts the
 * per-SM private L1s/write buffers in front of the banked chip
 * memory system (mem/banked_l2.hh): an SM<->L2 interconnect,
 * address-interleaved L2 slices, and multi-channel DRAM the SMs
 * contend for (one slice/one channel by default, which matches
 * the legacy monolithic model bit-identically), and hands out
 * CTAs through a chip-level scheduler. Each launch runs a grid to
 * completion on freshly initialized pipelines and returns its
 * statistics (with per-SM breakdowns on a chip).
 */

#ifndef SIWI_CORE_GPU_HH
#define SIWI_CORE_GPU_HH

#include <string>
#include <vector>

#include "core/kernel.hh"
#include "core/stats.hh"
#include "mem/backend.hh"
#include "mem/banked_l2.hh"
#include "mem/memory_image.hh"
#include "pipeline/sm.hh"

namespace siwi::core {

/** Grid dimensions for a kernel launch. */
struct LaunchConfig
{
    unsigned grid_blocks = 1;
    unsigned block_threads = 256;
    Cycle max_cycles = 50'000'000;
    /**
     * Event-driven cycle skipping: an SM whose every warp is
     * stalled sleeps until its own next-event bound (see
     * SM::nextWake) instead of stepping empty cycles. On a chip
     * each SM sleeps independently — a chip cycle steps only the
     * SMs that are due, and the chip clock jumps when none is.
     * Observationally equivalent — all statistics, including
     * cycle counts and timeout detection, are bit-identical to
     * per-cycle stepping — so it defaults on; turn it off to
     * cross-check (siwi-run --no-skip, and the stepping-
     * equivalence tests do exactly that). A launch-time knob, not
     * a GpuConfig field: it cannot change results, so it is not
     * part of the machine identity that configs and baselines key
     * on.
     */
    bool cycle_skip = true;
};

/**
 * GpuConfig's chip-level fields (common/field_list.hh); the "sm"
 * block has its own list. The shared L2 and the interconnect exist
 * only with more than one SM. The DRAM is the chip's: one SM reads
 * its bandwidth and latency only (mem::DramBackend), a multi-SM
 * chip honors all of it.
 */
#define SIWI_GPU_CONFIG_FIELDS(X, S, P, K) \
    X(P, K, U32, num_sms, 1, "SM instances on the chip") \
    X(P, K, STRUCT, l2, mem::L2Config) \
    SIWI_L2_CONFIG_FIELDS(S, S, P l2., K "l2_") \
    X(P, K, STRUCT, dram, mem::DramConfig) \
    SIWI_DRAM_CONFIG_FIELDS(S, S, P dram., K "dram_") \
    X(P, K, STRUCT, noc, mem::NocConfig) \
    SIWI_NOC_CONFIG_FIELDS(S, S, P noc., K "noc_")

/** Chip-level parameter set: SM geometry times chip topology. */
struct GpuConfig
{
    pipeline::SMConfig sm;
    SIWI_GPU_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )

    /**
     * Canonical chip for a pipeline mode: SMConfig::make(mode)
     * replicated @p num_sms times, on the paper's 10 GB/s,
     * 330-cycle DRAM (mem::DramConfig{}). The channel's bandwidth
     * scales linearly up to 4 SMs and then saturates, so the 8-SM
     * point exposes bandwidth contention.
     */
    static GpuConfig make(pipeline::PipelineMode mode,
                          unsigned num_sms);

    /** As above, replicating an already-tuned SM config. */
    static GpuConfig make(const pipeline::SMConfig &sm,
                          unsigned num_sms);

    /**
     * Check invariants without stopping: empty string when
     * consistent, else a diagnostic (covers the nested SM config
     * too). The non-fatal path serves user-supplied spec and
     * machine files.
     */
    std::string checkInvariants() const;

    /** Sanity-check invariants; panics on nonsense. */
    void validate() const;
};

/**
 * Field-wise equality over the GpuConfig field table plus the
 * nested SMConfig table (see core/config_io.hh); != is derived.
 */
bool operator==(const GpuConfig &a, const GpuConfig &b);

/**
 * The simulated device.
 */
class Gpu
{
  public:
    /** Single SM on a private DRAM channel (paper setup). */
    explicit Gpu(const pipeline::SMConfig &cfg);

    /**
     * @p cfg.num_sms SMs: one on a private DRAM channel, more
     * sharing the banked L2 and DRAM.
     */
    explicit Gpu(const GpuConfig &cfg);

    /** Global memory, for host-side setup and result readback. */
    mem::MemoryImage &memory() { return memory_; }
    const mem::MemoryImage &memory() const { return memory_; }

    const pipeline::SMConfig &config() const { return cfg_.sm; }

    /** Run @p kernel over @p lc to completion; returns statistics. */
    SimStats launch(const Kernel &kernel, const LaunchConfig &lc);

    /**
     * As launch(), with a per-issue trace hook (Figure 2
     * diagrams). On a multi-SM chip every SM feeds the same hook;
     * events of one cycle arrive in SM order.
     */
    SimStats launchTraced(const Kernel &kernel, const LaunchConfig &lc,
                          pipeline::SM::TraceHook hook);

    /**
     * Cycles fast-forwarded by event-driven skipping during the
     * most recent launch, summed over SMs. Diagnostic only (not
     * part of SimStats, which stays bit-identical across stepping
     * modes); zero when the launch ran with cycle_skip off.
     */
    u64 skippedCycles() const { return skipped_cycles_; }

    /**
     * Why the most recent launch ended before its grid finished,
     * or empty: an SM found a warp that can never progress
     * (pipeline::SM::failure()). The launch stops at that cycle,
     * neither finished nor timed out, and its cell fails.
     */
    const std::string &failure() const { return failure_; }

  private:
    /**
     * The launch loop: run @p kernel on cfg_.num_sms fresh SMs
     * over @p backend until every SM is done, one fails (which
     * sets failure_), or lc.max_cycles, which sets *@p timed_out.
     * @return each SM's finalized statistics, in SM order
     */
    std::vector<SimStats> runGrid(const Kernel &kernel,
                                  const LaunchConfig &lc,
                                  const pipeline::SM::TraceHook &hook,
                                  mem::MemoryBackend &backend,
                                  bool *timed_out);

    GpuConfig cfg_;
    mem::MemoryImage memory_;
    u64 skipped_cycles_ = 0;
    std::string failure_;
};

} // namespace siwi::core

#endif // SIWI_CORE_GPU_HH
