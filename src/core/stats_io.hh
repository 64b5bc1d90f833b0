/**
 * @file
 * Stable serialized schema for SimStats.
 *
 * The JSON layout produced here is the contract between the
 * experiment runner, the committed bench baselines and the CI
 * regression gate, so it is versioned: any change to field names,
 * meanings or units must bump stats_schema_version, and readers
 * refuse versions they do not understand (the gate would otherwise
 * compare apples to oranges silently).
 */

#ifndef SIWI_CORE_STATS_IO_HH
#define SIWI_CORE_STATS_IO_HH

#include <string>

#include "common/json.hh"
#include "core/stats.hh"

namespace siwi::core {

/**
 * Version of the serialized SimStats / results layout.
 *
 * v2 (multi-SM): adds write_forwards, l2_hits, l2_misses,
 * num_sms and the per_sm breakdown array to the stats object, and
 * num_sms to each results cell.
 *
 * v3 (front-end layer): renames hit_cycle_limit to timed_out (a
 * truncated run is not a result, and the runner now surfaces it
 * per cell), and adds the scheduling-policy label ("policy") to
 * each results cell.
 *
 * v4 (SimSpec API): results gain a top-level "machines" array —
 * one entry per (sweep, decorated machine label) with the fully
 * resolved chip configuration (core/config_io.hh), so every
 * artifact is self-describing and re-runnable. Cells are
 * unchanged.
 *
 * v5 (banked chip memory system): stats objects of shared-backend
 * launches gain the "l2_slices", "dram_channels" and "noc_ports"
 * breakdown arrays (omitted when empty, like "per_sm"), and DRAM
 * entries carry the new queue_full_stall_tenths counter. Existing
 * scalar counters are unchanged and remain the totals.
 *
 * v6 (per-warp sleep/wake): stats objects gain the skip-
 * effectiveness counters "warp_sleep_cycles" (warp-cycles spent
 * parked, out of the SM's per-stage work sets),
 * "runnable_warp_cycles" (integral of the awake-warp count over
 * cycles) and "avg_runnable_warps_x10" (derived mean, fixed-point
 * x10; recomputed from the summed integral on chip aggregates).
 * All three are jump-invariant, so skip and --no-skip runs
 * serialize identically. Existing fields are unchanged.
 */
constexpr int stats_schema_version = 6;

/** Serialize every SimStats counter as a flat JSON object. */
Json statsToJson(const SimStats &st);

/**
 * Rebuild a SimStats from statsToJson() output. Missing fields
 * default to zero (forward compatibility within one schema
 * version). A non-object argument, a present count that is not a
 * non-negative integer in its member's range and a timed_out that
 * is not a bool fail, naming the key, at every level.
 * @return false and set @p err on malformed input.
 */
bool statsFromJson(const Json &j, SimStats *out, std::string *err);

} // namespace siwi::core

#endif // SIWI_CORE_STATS_IO_HH
