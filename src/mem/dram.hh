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

#include "common/types.hh"

namespace siwi::mem {

/** DRAM bandwidth/latency parameters (per channel). */
struct DramConfig
{
    u32 bytes_per_cycle_x10 = 100; //!< bandwidth in 0.1 B/cyc units
    u32 latency_cycles = 330;      //!< flat access latency
    /**
     * Independent DRAM channels behind the chip's L2 slices, each
     * with the bandwidth/latency/queue parameters above (so total
     * chip bandwidth is channels * bytes_per_cycle_x10). Must be
     * a power of two (the channel-interleaving hash XOR-folds
     * address digits).
     */
    u32 channels = 1;
    /**
     * Transactions a channel may have outstanding — admitted but
     * not yet returned through the flat latency — before new
     * requests stall at the channel queue. 0 means unbounded (the
     * paper's pure bandwidth pipe).
     */
    u32 queue_depth = 0;

    bool operator==(const DramConfig &) const = default;
};

/** DRAM statistics. */
struct DramStats
{
    u64 transactions = 0;
    u64 bytes = 0;
    u64 stall_tenths = 0; //!< queueing delay accumulated (0.1 cyc)
    /**
     * Portion of stall_tenths spent waiting for a queue slot (the
     * channel had queue_depth transactions outstanding); the rest
     * is pure bandwidth serialization.
     */
    u64 queue_full_stall_tenths = 0;

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
