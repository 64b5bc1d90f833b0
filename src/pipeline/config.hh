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

/**
 * SMConfig's fields (common/field_list.hh): the paper's Table 2
 * plus the mode switches. Row order is the serialization order of
 * pipeline::writeJson(JsonWriter &, const SMConfig &) and the row
 * order of docs/CONFIG.md's SM table.
 *
 * Notes the doc strings only name:
 *   - swi: the primary pick waits a cycle in the cascade register
 *     (Table 2's 2-cycle scheduler; 1 cycle without it).
 *   - sbi_secondary_fallback: the SBI secondary front-end issues
 *     another warp's primary context to a different SIMD group
 *     when no secondary warp-split is ready (interpretation note
 *     in docs/DESIGN.md).
 *   - sched_policy: the paper's machines are all oldest-first; the
 *     alternatives are an orthogonal sweep axis (a spec sweep's
 *     "policies").
 */
#define SIWI_SM_CONFIG_FIELDS(X, S, P, K) \
    /* --- machine geometry --- */ \
    X(P, K, U32, warp_width, 32, \
      "threads per warp (32 = Fermi, 64 = interweaving machines)", 1, \
      max_warp_width) \
    X(P, K, U32, num_warps, 32, "resident warps per SM", 1, 1024) \
    X(P, K, U32, num_pools, 2, \
      "independent scheduler pools (1 or 2; 1 with sbi or swi)") \
    X(P, K, U32, mad_groups, 2, "number of MAD SIMD groups", 1, 64) \
    X(P, K, U32, mad_width, 32, "lanes per MAD group") \
    X(P, K, U32, sfu_width, 8, "SFU lanes") \
    X(P, K, U32, lsu_width, 32, "LSU lanes") \
    /* --- divergence handling --- */ \
    X(P, K, ENUM, reconv, ReconvMode::Stack, \
      "divergence-tracking substrate", reconv_names) \
    X(P, K, BOOL, sbi, false, \
      "secondary front-end over CPC2 contexts (paper 3.3)") \
    X(P, K, BOOL, swi, false, \
      "cascaded mask-fit secondary scheduler (paper 4; Table 2's " \
      "2-cycle scheduler)") \
    X(P, K, BOOL, sbi_constraints, true, \
      "honor SYNC selective synchronization barriers") \
    X(P, K, BOOL, sbi_secondary_fallback, true, \
      "SBI secondary may issue another warp's primary context " \
      "(docs/DESIGN.md)") \
    X(P, K, BOOL, split_on_memory_divergence, true, \
      "DWS-style warp-splits on memory divergence (paper 3.4)") \
    X(P, K, STRUCT, heap, divergence::SplitHeapConfig) \
    SIWI_SPLIT_HEAP_CONFIG_FIELDS(S, S, P heap., K) \
    /* --- scheduling --- */ \
    X(P, K, ENUM, sched_policy, frontend::SchedPolicyKind::OldestFirst, \
      "primary-scheduler candidate ordering (the machine's default; " \
      "a non-default `policies` axis entry overrides it)", \
      frontend::sched_policy_names) \
    X(P, K, ENUM, lane_shuffle, LaneShufflePolicy::Identity, \
      "static SWI lane-shuffle policy (paper Table 1)", \
      lane_shuffle_names) \
    X(P, K, U32, lookup_sets, 1, \
      "mask-inclusion lookup sets; 1 = fully associative, " \
      "num_warps = direct mapped") \
    /* --- timing (Table 2) --- */ \
    X(P, K, U32, delivery_latency, 0, \
      "instruction-delivery stage cycles") \
    X(P, K, U32, exec_latency, 8, "execution latency in cycles") \
    X(P, K, U32, scoreboard_entries, 6, "scoreboard entries per warp", \
      1, 64) \
    /* --- memory --- */ \
    X(P, K, STRUCT, mem, mem::MemConfig) \
    SIWI_MEM_CONFIG_FIELDS(S, S, P mem., K) \
    /* --- occupancy --- */ \
    X(P, K, U32, max_blocks_resident, 8, \
      "thread blocks resident per SM", 1, 1024)

/** Full SM parameter set. */
struct SMConfig
{
    SIWI_SM_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )

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
