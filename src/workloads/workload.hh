/**
 * @file
 * The benchmark suite of the paper's evaluation (section 5.1).
 *
 * Each workload reproduces the divergence and memory signature of
 * one Rodinia / CUDA SDK / TMD benchmark as a kernel in our ISA (see
 * the substitution table in docs/DESIGN.md). Workloads generate their own
 * deterministic inputs and verify the device results against a host
 * reference implementation, so every pipeline configuration is
 * checked for functional correctness, not just timed.
 */

#ifndef SIWI_WORKLOADS_WORKLOAD_HH
#define SIWI_WORKLOADS_WORKLOAD_HH

#include <string>
#include <string_view>
#include <vector>

#include "cfg/compiler.hh"
#include "core/gpu.hh"
#include "core/stats.hh"
#include "isa/program.hh"
#include "mem/memory_image.hh"
#include "pipeline/config.hh"

namespace siwi::workloads {

/**
 * Problem size: Tiny for unit tests, Full for the single-SM paper
 * benches (grids sized for one SM), Chip for the multi-SM scaling
 * study — the same kernels over working sets large enough to keep
 * a 64-SM chip busy (>=64 CTAs). Only the workloads of the
 * bench/specs/scaling.json panel implement Chip; the rest fall
 * back to their Tiny size.
 */
enum class SizeClass { Tiny, Full, Chip };

/** Spec and CLI names, index == SizeClass value. */
inline constexpr const char *size_class_names[] = {"tiny", "full",
                                                   "chip"};

/** A concrete kernel instance ready to compile and launch. */
struct Instance
{
    isa::Program raw;            //!< uncompiled program
    cfg::CompileOptions compile; //!< layout options (TMD1!)
    unsigned grid_blocks = 1;
    unsigned block_threads = 256;
};

/**
 * One benchmark.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;

    /** Regular vs irregular classification (Figure 7a vs 7b). */
    virtual bool regular() const = 0;

    /**
     * Excluded from the Figure 7 means? The paper excludes TMD1/2:
     * they measure thread-frontier reconvergence, not SBI/SWI.
     */
    virtual bool excludedFromMeans() const { return false; }

    virtual Instance instance(SizeClass sc) const = 0;

    /** Write the input data set into @p mem. */
    virtual void init(mem::MemoryImage &mem, SizeClass sc) const = 0;

    /**
     * Check device results against the host reference.
     * @param why filled with a diagnostic on failure (may be null)
     */
    virtual bool verify(const mem::MemoryImage &mem, SizeClass sc,
                        std::string *why) const = 0;
};

/** All 21 workloads, regular first, in the paper's plot order. */
const std::vector<const Workload *> &allWorkloads();

/** Lookup by name; nullptr if unknown. */
const Workload *findWorkload(std::string_view name);

std::vector<const Workload *> regularWorkloads();
std::vector<const Workload *> irregularWorkloads();

/** Outcome of a complete run (compile, init, launch, verify). */
struct RunResult
{
    core::SimStats stats;
    bool verified = false;
    std::string verify_msg;
    unsigned layout_violations = 0;
    /**
     * Cycles fast-forwarded by event-driven skipping (see
     * core::LaunchConfig::cycle_skip). Diagnostic only — stats is
     * bit-identical whether or not skipping ran; zero when
     * cycle_skip was off or every cycle had work.
     */
    u64 skipped_cycles = 0;
};

/** Compile, initialize, launch and verify one workload. */
RunResult runWorkload(const Workload &wl,
                      const pipeline::SMConfig &cfg, SizeClass sc);

/**
 * As above on a chip of @p num_sms SMs (core::GpuConfig::make):
 * num_sms == 1 is the paper's private-channel single-SM setup,
 * more SMs share the chip L2 + DRAM channel. @p cycle_skip
 * forwards to core::LaunchConfig::cycle_skip (observationally
 * equivalent either way; off is the cross-check mode).
 */
RunResult runWorkload(const Workload &wl,
                      const pipeline::SMConfig &cfg, SizeClass sc,
                      unsigned num_sms, bool cycle_skip = true);

/**
 * As above from a fully-resolved chip configuration — the runner
 * uses this so chip-level overrides (L2 slicing, DRAM channels,
 * the interconnect) reach the simulator instead of being
 * re-derived from the SM config alone. A workload whose CTA does
 * not fit on one SM (block_threads > SMConfig::maxThreads())
 * runs nothing and returns unverified, with a message naming
 * both sizes.
 */
RunResult runWorkload(const Workload &wl,
                      const core::GpuConfig &chip, SizeClass sc,
                      bool cycle_skip = true);

} // namespace siwi::workloads

#endif // SIWI_WORKLOADS_WORKLOAD_HH
