/**
 * @file
 * Banked chip-level memory system: interleaved L2 slices,
 * multi-channel DRAM, and a contended SM<->L2 interconnect.
 *
 * The legacy SharedL2 funnels every SM through one tag array and
 * one DRAM pipe, so chip results above a few SMs measure that toy
 * backend rather than the pipeline mechanisms under study. BankedL2
 * replaces it with the structure of a real chip:
 *
 *           SM 0      SM 1     ...     SM N-1
 *            |port 0   |port 1         |port N-1
 *         [ NoC: per-port injection bandwidth,
 *           request/response latency ]
 *            |          |               |
 *         slice 0    slice 1   ...   slice S-1   (XOR-fold hash
 *         tags+MSHRs tags+MSHRs       tags+MSHRs  of block bits)
 *            \          |               /
 *         channel 0  channel 1 ...  channel C-1  (XOR-fold of the
 *         queue+pipe queue+pipe     queue+pipe    remaining bits)
 *
 * Everything stays *passive* (the MemoryBackend contract) — all
 * latency is carried by the ready cycles returned from
 * read()/write() and internal state advances only inside calls —
 * so lockstep multi-SM stepping remains deterministic and
 * event-driven cycle skipping stays exact. The per-slice MSHR
 * files hold timed entries (a channel-issue cycle and a fill
 * cycle), but they are consulted only inside calls, against the
 * request's own time: a fill installs its tag lazily at the next
 * request that reaches the slice, and slot occupancy is counted
 * from the entries' times. So the backend needs no wake bound; an
 * SM observes it only through the cycles it was returned, and the
 * chip lets each SM sleep on its own bounds.
 *
 * Arbitration: within a lockstep cycle SMs are stepped in index
 * order, so same-cycle requests reach a slice in port order — a
 * round-robin rotation across ports (0..N-1, 0..N-1, ...) with no
 * port ever served twice before all others had their turn that
 * cycle. Requests issued with a future start time (MSHR-queued L1
 * misses) reserve bandwidth at call time, in call order, like
 * every other pipe in the simulator.
 *
 * Defaults are chosen so that BankedL2 with one slice, one channel
 * and a free interconnect is arithmetically identical to SharedL2
 * in front of one Dram — the tag array, the DRAM pipe and every
 * returned cycle see the exact same call sequence — which keeps
 * the committed multi-SM baselines bit-identical (tested).
 */

#ifndef SIWI_MEM_BANKED_L2_HH
#define SIWI_MEM_BANKED_L2_HH

#include <vector>

#include "mem/backend.hh"
#include "mem/mshr_file.hh"

namespace siwi::mem {

/**
 * NocConfig's fields (common/field_list.hh). An SM's block
 * transfers serialize through its port at the injection bandwidth
 * before reaching the slices.
 */
#define SIWI_NOC_CONFIG_FIELDS(X, S, P, K) \
    X(P, K, U32, request_latency, 0, \
      "SM->L2 interconnect request latency in cycles") \
    X(P, K, U32, response_latency, 0, \
      "L2->SM interconnect response latency in cycles") \
    X(P, K, U32, port_bytes_per_cycle_x10, 0, \
      "per-SM interconnect-port injection bandwidth in 0.1 " \
      "byte/cycle units (0 = unlimited crossbar)")

/** SM<->L2 interconnect parameters. */
struct NocConfig
{
    SIWI_NOC_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )
};

/** L2SliceStats' counters (common/field_list.hh). */
#define SIWI_L2_SLICE_COUNTERS(X) \
    X(hits) \
    X(misses) \
    X(writes)           /* write-throughs passed to a channel */ \
    X(mshr_merges)      /* requests merged onto in-flight fills */ \
    X(mshr_stalls)      /* misses that waited for an MSHR slot */ \
    X(tag_stall_cycles) /* cycles lost to tag-pipe conflicts */

/** Per-L2-slice statistics. */
struct L2SliceStats
{
    SIWI_L2_SLICE_COUNTERS(SIWI_COUNTER_MEMBER)

    bool operator==(const L2SliceStats &) const = default;
};

/** NocPortStats' counters (common/field_list.hh). */
#define SIWI_NOC_PORT_COUNTERS(X) \
    X(requests) \
    X(bytes) \
    X(stall_tenths) /* injection serialization (0.1 cycle) */

/** Per-interconnect-port statistics. */
struct NocPortStats
{
    SIWI_NOC_PORT_COUNTERS(SIWI_COUNTER_MEMBER)

    bool operator==(const NocPortStats &) const = default;
};

/**
 * The banked chip memory system (see file comment).
 *
 * Slice selection XOR-folds the block-number bits base `slices`,
 * channel selection XOR-folds the remaining bits base `channels`:
 * any aligned window of slices*channels consecutive blocks maps
 * bijectively onto the (slice, channel) pairs, so strided streams
 * spread across both levels instead of camping on one bank.
 */
class BankedL2 final : public MemoryBackend
{
  public:
    /**
     * @p block_bytes is the block size of the L1s it serves;
     * @p ports is the number of SM-side interconnect ports (one
     * per SM); @p dram describes one channel, replicated
     * dram.channels times.
     */
    BankedL2(const L2Config &cfg, u32 block_bytes,
             const DramConfig &dram, const NocConfig &noc,
             unsigned ports);

    Cycle read(Cycle now, Addr block, u32 bytes,
               unsigned port) override;
    void write(Cycle now, Addr block, u32 bytes,
               unsigned port) override;
    void invalidate() override;

    /** Aggregate over all channels (interface contract). */
    const DramStats &dramStats() const override;

    /** Home slice of a block address. */
    static u32 sliceOf(Addr block, u32 block_bytes, u32 slices);
    /** Home channel of a block address. */
    static u32 channelOf(Addr block, u32 block_bytes, u32 slices,
                         u32 channels);

    /** Chip totals (sum over slices). */
    const L2Stats &stats() const { return totals_; }

    u32 numSlices() const { return u32(slices_.size()); }
    u32 numChannels() const { return u32(channels_.size()); }
    unsigned numPorts() const { return unsigned(ports_.size()); }

    const L2SliceStats &sliceStats(u32 s) const
    {
        return slices_[s].stats;
    }
    const DramStats &channelStats(u32 c) const
    {
        return channels_[c].stats();
    }
    const NocPortStats &portStats(unsigned p) const
    {
        return ports_[p].stats;
    }

    /**
     * MSHRs of slice @p s busy at @p now: misses whose channel
     * request has started and whose fill has not completed. Never
     * exceeds config().mshrs_per_slice (0 = untracked, always 0).
     */
    unsigned sliceMshrOccupancy(u32 s, Cycle now) const;

    const L2Config &config() const { return cfg_; }

  private:
    struct Slice
    {
        L1Cache tags;
        Cycle busy_until = 0; //!< tag pipeline free again
        /**
         * In-flight misses (start: channel request issue, fill: tag
         * install). Its earliest-fill cursor lets the install sweep
         * of a request that finds nothing due return at once.
         */
        MshrFile mshrs;
        L2SliceStats stats;

        explicit Slice(const CacheConfig &c) : tags(c) {}
    };

    struct Port
    {
        u64 next_free_tenths = 0;
        NocPortStats stats;
    };

    /** NoC request leg: cycle the request reaches its slice. */
    Cycle inject(Cycle now, u32 bytes, unsigned port);
    /** Tag-pipeline leg: cycle the slice lookup happens. */
    Cycle tagLookup(Slice &sl, Cycle arrive);

    L2Config cfg_;
    u32 block_bytes_;
    NocConfig noc_;
    std::vector<Slice> slices_;
    std::vector<Dram> channels_;
    std::vector<Port> ports_;
    L2Stats totals_;
    /** Channel aggregate, refreshed by dramStats(). */
    mutable DramStats dram_totals_;
};

} // namespace siwi::mem

#endif // SIWI_MEM_BANKED_L2_HH
