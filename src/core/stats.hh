/**
 * @file
 * Aggregate simulation statistics reported by one kernel launch.
 */

#ifndef SIWI_CORE_STATS_HH
#define SIWI_CORE_STATS_HH

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/field_list.hh"
#include "mem/banked_l2.hh"

namespace siwi::core {

/** UnitStats' counters (common/field_list.hh). */
#define SIWI_UNIT_STATS_COUNTERS(X) \
    X(issues) \
    X(busy_cycles) \
    X(thread_instructions)

/** Per-execution-group occupancy. */
struct UnitStats
{
    std::string name;
    SIWI_UNIT_STATS_COUNTERS(SIWI_COUNTER_MEMBER)

    bool operator==(const UnitStats &) const = default;
};

/**
 * SimStats' u64 counters (common/field_list.hh), in serialization
 * order. aggregate() sums each over SMs.
 *
 * The shared-L2 and DRAM counters are chip-level: zero when the
 * machine has no L2, and on a chip aggregate they come from the
 * shared backend itself.
 *
 * The sleep/wake counters (schema v6) are jump-invariant, so skip
 * and --no-skip runs serialize them identically:
 *   - warp_sleep_cycles: warp-cycles spent parked (a warp provably
 *     unable to issue, fetch or touch shared front-end state, and
 *     out of the SM's per-stage work sets);
 *   - runnable_warp_cycles: the integral of the awake (active,
 *     not parked) warp count over cycles, which sums meaningfully
 *     across SMs;
 *   - avg_runnable_warps_x10: its mean per cycle, fixed-point x10
 *     (245 = 24.5 warps), derived as 10 * runnable_warp_cycles /
 *     cycles; aggregate() recomputes it from the summed integral.
 */
#define SIWI_SIM_STATS_COUNTERS(X) \
    /* --- front-end --- */ \
    X(fetches) \
    X(instructions)        /* instructions issued */ \
    X(thread_instructions) /* sum of active lanes at issue */ \
    X(primary_issues) \
    X(secondary_issues) \
    X(row_share_issues)    /* secondary sharing primary's row */ \
    X(fallback_issues)     /* SBI secondary fallback issues */ \
    X(conflicts_squashed)  /* SWI a-posteriori conflicts */ \
    X(cascade_stale)       /* cascade picks invalidated */ \
    X(sync_suspensions)    /* scheduling attempts gated by SYNC */ \
    /* --- divergence --- */ \
    X(branch_divergences) \
    X(warp_splits) \
    X(memory_splits) \
    X(merges) \
    X(promotions) \
    X(heap_full_stalls) \
    X(cct_degraded_inserts) \
    X(barrier_releases) \
    /* --- memory --- */ \
    X(l1_hits) \
    X(l1_misses) \
    X(l1_evictions) \
    X(load_transactions) \
    X(store_transactions) \
    X(write_forwards)      /* loads served from the write buffer */ \
    X(mshr_merges) \
    X(mshr_stalls) \
    X(l2_hits) \
    X(l2_misses) \
    X(dram_transactions) \
    X(dram_bytes) \
    /* --- per-warp sleep/wake --- */ \
    X(warp_sleep_cycles) \
    X(runnable_warp_cycles) \
    X(avg_runnable_warps_x10) \
    /* --- work --- */ \
    X(threads_launched) \
    X(blocks_launched)

/**
 * Everything a kernel launch measures. The headline metric is
 * thread instructions per cycle (the y-axis of Figure 7). Members
 * are declared in serialization order.
 */
struct SimStats
{
    Cycle cycles = 0;
    /**
     * The run was truncated at the cycle cap: every counter below
     * covers only the simulated prefix, and derived metrics (IPC)
     * are not comparable with completed runs. Serialized since
     * schema v3; the runner refuses to present such a cell as a
     * plausible result.
     */
    bool timed_out = false;

    SIWI_SIM_STATS_COUNTERS(SIWI_COUNTER_MEMBER)

    unsigned max_stack_depth = 0;
    unsigned max_live_contexts = 0;

    // --- chip topology (schema v2) ---
    /** SMs that produced these stats (1 for a single-SM run). */
    unsigned num_sms = 1;

    std::vector<UnitStats> units;

    // --- chip memory topology breakdowns (schema v5) ---
    /**
     * Per-L2-slice / per-DRAM-channel / per-interconnect-port
     * counters of the banked chip memory system, in index order.
     * Chip-level like l2_* and dram_*: filled only on the
     * aggregate of a shared-backend launch (empty for single-SM
     * private runs and in per_sm entries), and their sums match
     * the chip scalars — sum of slice hits == l2_hits, sum of
     * channel transactions == dram_transactions.
     */
    std::vector<mem::L2SliceStats> l2_slices;
    std::vector<mem::DramStats> dram_channels;
    std::vector<mem::NocPortStats> noc_ports;

    /**
     * Per-SM breakdown of a multi-SM launch, in SM order; empty
     * for single-SM runs. Entries never nest further. SM-local
     * counters of the chip aggregate are the field-wise sum of
     * this vector (cycles is the max); the backend counters
     * (l2_*, dram_*) are chip-level and live only in the
     * aggregate.
     */
    std::vector<SimStats> per_sm;

    /** Thread instructions per cycle. */
    double ipc() const
    {
        return cycles ? double(thread_instructions) / double(cycles)
                      : 0.0;
    }

    /** L1 hit rate over load transactions. */
    double l1HitRate() const
    {
        u64 total = l1_hits + l1_misses;
        return total ? double(l1_hits) / double(total) : 0.0;
    }

    /** Multi-line human-readable report. */
    std::string summary() const;

    /**
     * Fold per-SM launch stats into one chip aggregate: the listed
     * counters sum, cycles / depth maxima take the max, unit
     * occupancies merge by name, and @p sms is copied into
     * per_sm. Backend counters (l2_*, dram_*) are summed like the
     * rest, which is correct for private backends; a chip with a
     * *shared* backend overwrites them from the backend's own
     * statistics afterwards, and fills the per-slice/channel/port
     * breakdown vectors (always empty in per-SM inputs) the same
     * way.
     */
    static SimStats aggregate(const std::vector<SimStats> &sms);

    /**
     * Field-wise equality; the determinism tests rely on two runs
     * of the same cell comparing equal.
     */
    bool operator==(const SimStats &) const = default;
};

/** One u64 counter of a stats struct: serialized name + member. */
template <typename Stats>
struct CounterField
{
    std::string_view name;
    u64 Stats::*member;
};

template <typename Stats>
using CounterFields = std::span<const CounterField<Stats>>;

/**
 * Every counter of @p Stats, from its counter list in list order:
 * the one table that drives serialization, parsing and chip
 * aggregation, so a counter cannot be serialized without being
 * parseable and summable.
 */
template <typename Stats>
CounterFields<Stats> counterFields();

#define SIWI_COUNTER_FIELD(name) {#name, &Stats::name},
#define SIWI_COUNTER_TABLE(Type, LIST) \
    template <> \
    inline CounterFields<Type> counterFields<Type>() \
    { \
        using Stats = Type; \
        static constexpr CounterField<Stats> fields[] = { \
            LIST(SIWI_COUNTER_FIELD)}; \
        return fields; \
    }

SIWI_COUNTER_TABLE(SimStats, SIWI_SIM_STATS_COUNTERS)
SIWI_COUNTER_TABLE(UnitStats, SIWI_UNIT_STATS_COUNTERS)
SIWI_COUNTER_TABLE(mem::L2SliceStats, SIWI_L2_SLICE_COUNTERS)
SIWI_COUNTER_TABLE(mem::DramStats, SIWI_DRAM_COUNTERS)
SIWI_COUNTER_TABLE(mem::NocPortStats, SIWI_NOC_PORT_COUNTERS)

#undef SIWI_COUNTER_TABLE
#undef SIWI_COUNTER_FIELD

} // namespace siwi::core

#endif // SIWI_CORE_STATS_HH
