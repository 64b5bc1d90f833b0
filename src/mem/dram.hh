/**
 * @file
 * Throughput-limited, constant-latency memory model.
 *
 * Follows the paper's methodology (section 5.1, after Gebhart et
 * al.): a single-SM memory system with 10 GB/s of bandwidth and
 * 330 ns latency at 1 GHz, i.e. 10 bytes per cycle and 330 cycles.
 */

#ifndef SIWI_MEM_DRAM_HH
#define SIWI_MEM_DRAM_HH

#include <vector>

#include "common/field_list.hh"

namespace siwi::mem {

/**
 * DramConfig's fields (common/field_list.hh). The channels sit
 * behind the chip's L2 slices, each with the bandwidth, latency
 * and queue given here; their count is a power of two because the
 * channel-interleaving hash XOR-folds address digits. A channel
 * may have queue_depth transactions outstanding (admitted but not
 * yet returned through the flat latency) before new requests
 * stall; 0 is the paper's pure bandwidth pipe.
 */
#define SIWI_DRAM_CONFIG_FIELDS(X, S, P, K) \
    X(P, K, U32, bytes_per_cycle_x10, 100, \
      "per-channel DRAM bandwidth in 0.1 byte/cycle units " \
      "(100 = the paper's 10 GB/s)") \
    X(P, K, U32, latency_cycles, 330, \
      "flat DRAM access latency in cycles") \
    X(P, K, U32, channels, 1, \
      "interleaved chip DRAM channels (power of two; total " \
      "bandwidth scales with the channel count)", 0, 1024) \
    X(P, K, U32, queue_depth, 0, \
      "outstanding transactions per DRAM channel before new " \
      "requests stall (0 = unbounded)", 0, 1024)

/** DRAM bandwidth/latency parameters (per channel). */
struct DramConfig
{
    SIWI_DRAM_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )

    bool operator==(const DramConfig &) const = default;
};

/**
 * DramStats' counters (common/field_list.hh). The stall counters
 * accumulate queueing delay in tenths of a cycle;
 * queue_full_stall_tenths is the part spent waiting for a queue
 * slot, the rest is bandwidth serialization.
 */
#define SIWI_DRAM_COUNTERS(X) \
    X(transactions) \
    X(bytes) \
    X(stall_tenths) \
    X(queue_full_stall_tenths)

/** DRAM statistics. */
struct DramStats
{
    SIWI_DRAM_COUNTERS(SIWI_COUNTER_MEMBER)

    bool operator==(const DramStats &) const = default;
};

/**
 * Bandwidth-throttled pipe with flat latency.
 *
 * Transfer time is tracked in tenths of a cycle so the paper's
 * 10 GB/s (12.8 cycles per 128-byte block) is modeled exactly.
 * With a finite queue_depth the pipe also refuses to admit a new
 * transfer while queue_depth transactions are still outstanding
 * (issued but not yet past the flat latency): the request's start
 * time slips to the completion of the oldest outstanding one,
 * which models a bounded per-channel request queue without an
 * event queue — everything is still resolved at call time.
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &cfg)
        : cfg_(cfg), completions_(cfg.queue_depth, 0)
    {
    }

    /**
     * Enqueue a @p bytes transfer at time @p now.
     * @return the cycle the data is available.
     */
    Cycle serve(Cycle now, u32 bytes);

    const DramStats &stats() const { return stats_; }
    const DramConfig &config() const { return cfg_; }

  private:
    DramConfig cfg_;
    u64 next_free_tenths_ = 0;
    /** Completion times (tenths) of the last queue_depth serves. */
    std::vector<u64> completions_;
    size_t completions_head_ = 0;
    DramStats stats_;
};

} // namespace siwi::mem

#endif // SIWI_MEM_DRAM_HH
