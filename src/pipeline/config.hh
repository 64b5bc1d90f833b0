/**
 * @file
 * SM configuration (the paper's Table 2 plus mode switches).
 */

#ifndef SIWI_PIPELINE_CONFIG_HH
#define SIWI_PIPELINE_CONFIG_HH

#include <string>

#include "divergence/split_heap.hh"
#include "frontend/sched_policy.hh"
#include "mem/memory_system.hh"

namespace siwi::pipeline {

/** The five simulated machines of the evaluation (Figure 7). */
enum class PipelineMode {
    Baseline, //!< 32x32 warps, stack reconvergence (Fermi-like)
    Warp64,   //!< 16x64, thread-frontier heap, sequential splits
    SBI,      //!< 16x64, + dual front-end over CPC1/CPC2
    SWI,      //!< 16x64, + cascaded mask-fit secondary scheduler
    SBISWI,   //!< both techniques combined
};

/** Machine names, index == PipelineMode value. */
inline constexpr const char *pipeline_mode_names[] = {
    "Baseline", "Warp64", "SBI", "SWI", "SBI+SWI",
};

/** Divergence-tracking substrate. */
enum class ReconvMode { Stack, ThreadFrontier };

/** Config names, index == ReconvMode value. */
inline constexpr const char *reconv_names[] = {
    "stack",
    "thread_frontier",
};

/** Static lane-shuffle policies (paper Table 1). */
enum class LaneShufflePolicy {
    Identity,
    MirrorOdd,
    MirrorHalf,
    Xor,
    XorRev,
};

/** Config names, index == LaneShufflePolicy value. */
inline constexpr const char *lane_shuffle_names[] = {
    "Identity", "MirrorOdd", "MirrorHalf", "Xor", "XorRev",
};

inline const char *
pipelineModeName(PipelineMode m)
{
    return pipeline_mode_names[size_t(m)];
}

inline const char *
laneShuffleName(LaneShufflePolicy p)
{
    return lane_shuffle_names[size_t(p)];
}

/** Full SM parameter set. */
struct SMConfig
{
    // --- machine geometry ---
    unsigned warp_width = 32;
    unsigned num_warps = 32;
    unsigned num_pools = 2;   //!< independent scheduler pools
    unsigned mad_groups = 2;  //!< number of MAD SIMD groups
    unsigned mad_width = 32;
    unsigned sfu_width = 8;
    unsigned lsu_width = 32;

    // --- divergence handling ---
    ReconvMode reconv = ReconvMode::Stack;
    bool sbi = false; //!< secondary front-end over CPC2 contexts
    /**
     * Cascaded mask-fit secondary scheduler (paper 4): the primary
     * pick waits a cycle in the cascade register, which is Table 2's
     * 2-cycle scheduler (1 cycle without it).
     */
    bool swi = false;
    /** Honor SYNC selective synchronization barriers (paper 3.3). */
    bool sbi_constraints = true;
    /**
     * Let the SBI secondary front-end issue another warp's primary
     * context to a different SIMD group when no secondary warp-split
     * is ready (interpretation note in docs/DESIGN.md).
     */
    bool sbi_secondary_fallback = true;
    /** DWS-style warp-splits on memory address divergence (3.4). */
    bool split_on_memory_divergence = true;
    divergence::SplitHeapConfig heap;

    /**
     * Primary-scheduler candidate ordering (frontend layer). The
     * paper's machines are all oldest-first; the alternatives are
     * an orthogonal sweep axis (a spec sweep's "policies").
     */
    frontend::SchedPolicyKind sched_policy =
        frontend::SchedPolicyKind::OldestFirst;

    // --- SWI scheduler ---
    LaneShufflePolicy shuffle = LaneShufflePolicy::Identity;
    /**
     * Set count of the mask-inclusion lookup; 1 = fully associative
     * (a CAM), num_warps = direct mapped (Figure 9).
     */
    unsigned lookup_sets = 1;

    // --- timing (Table 2) ---
    unsigned delivery_latency = 0;   //!< instruction delivery stage
    unsigned exec_latency = 8;
    unsigned scoreboard_entries = 6; //!< per warp

    // --- memory ---
    mem::MemConfig mem;

    // --- occupancy ---
    unsigned max_blocks_resident = 8;

    /** Threads resident at full occupancy. */
    unsigned maxThreads() const { return warp_width * num_warps; }

    /** Build the canonical configuration of a pipeline mode. */
    static SMConfig make(PipelineMode mode);

    /** Table 2-style multi-line summary. */
    std::string summary() const;

    /**
     * Check invariants without stopping: returns an empty string
     * when the configuration is consistent, else a diagnostic.
     * The non-fatal path exists for user-supplied configurations
     * (spec files, machine files, --set) which must produce a
     * parse error, not a simulator panic.
     */
    std::string checkInvariants() const;

    /** Sanity-check invariants; panics on nonsense. */
    void validate() const;
};

/**
 * Field-wise equality over the SMConfig field table (see
 * pipeline/config_io.hh); != is derived. Used to deduplicate
 * identical machine columns in sweep expansion.
 */
bool operator==(const SMConfig &a, const SMConfig &b);

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_CONFIG_HH
