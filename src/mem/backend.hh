/**
 * @file
 * Memory backend below the per-SM L1s.
 *
 * A MemoryBackend is whatever sits behind an SM's private L1 and
 * write buffer: either a private DRAM channel (the paper's
 * single-SM methodology, DramBackend) or the banked chip memory
 * system (BankedL2, see mem/banked_l2.hh) with address-interleaved
 * L2 slices, multi-channel DRAM and a contended SM<->L2
 * interconnect. core::Gpu owns the backend of a launch and hands
 * it to every SM's MemorySystem. SharedL2, one L2 in front of one
 * DRAM channel, is no longer launched: it stays as the independent
 * reference that the 1-slice BankedL2 is tested against.
 */

#ifndef SIWI_MEM_BACKEND_HH
#define SIWI_MEM_BACKEND_HH

#include "mem/cache.hh"
#include "mem/dram.hh"

namespace siwi::mem {

/**
 * Timing model of everything below an SM's private memory
 * structures. Calls are made in simulated-time order per SM; when
 * shared, the chip steps its SMs in lockstep so requests of one
 * cycle arrive in SM order (deterministic for a fixed config).
 * @p port identifies the requesting SM's interconnect port on a
 * shared backend; private backends ignore it.
 *
 * Contract: a backend is passive. Its state changes only inside
 * read(), write() and invalidate(), and all latency is carried by
 * the cycles read() returns. No backend may hold timed state that
 * an SM can observe other than through those returned cycles,
 * which the SM keeps in its own MemorySystem. That is why the
 * backend reports no wake bound: an SM that issues no request
 * cannot see the backend change, so a sleeping SM's wake depends
 * only on its own state, and the chip can let each SM sleep
 * independently (core::Gpu::runGrid). Internal timed structures
 * (BankedL2's per-slice MSHR files) advance lazily, from the
 * request time, at the next call that reaches them.
 */
class MemoryBackend
{
  public:
    virtual ~MemoryBackend() = default;

    /**
     * Serve a block read (an L1 miss refill) issued at @p now
     * through interconnect port @p port.
     * @return the cycle the data is available at the SM.
     */
    virtual Cycle read(Cycle now, Addr block, u32 bytes,
                       unsigned port) = 0;

    /**
     * Serve a write-through of @p bytes to @p block at @p now.
     * Fire-and-forget: only consumes backend bandwidth.
     */
    virtual void write(Cycle now, Addr block, u32 bytes,
                       unsigned port) = 0;

    /** Drop cached residency (kernel boundary; stats persist). */
    virtual void invalidate() = 0;

    /** DRAM-channel statistics of this backend (all channels). */
    virtual const DramStats &dramStats() const = 0;
};

/**
 * A private DRAM channel: the paper's single-SM memory system. It
 * takes only the bandwidth and latency of @p cfg and stays one
 * channel with no queue bound; channels and queue_depth shape a
 * chip's BankedL2 alone.
 */
class DramBackend final : public MemoryBackend
{
  public:
    explicit DramBackend(const DramConfig &cfg);

    Cycle read(Cycle now, Addr, u32 bytes, unsigned) override
    {
        return dram_.serve(now, bytes);
    }
    void write(Cycle now, Addr, u32 bytes, unsigned) override
    {
        dram_.serve(now, bytes);
    }
    void invalidate() override {}
    const DramStats &dramStats() const override
    {
        return dram_.stats();
    }

  private:
    Dram dram_;
};

/**
 * L2Config's fields (common/field_list.hh). Slices exist in
 * BankedL2 only: each owns size_bytes/slices of capacity, its own
 * tag pipeline and MSHR file, and an interleaved share of the
 * block address space; 1 slice reproduces the legacy monolithic
 * SharedL2 timing bit-identically. With slice MSHRs a fill
 * installs its tag when it completes and a full file makes a new
 * miss wait for the earliest slot. Back-to-back lookups in one
 * slice serialize at tag_cycles while other slices proceed in
 * parallel (the point of banking).
 */
#define SIWI_L2_CONFIG_FIELDS(X, S, P, K) \
    X(P, K, U32, size_bytes, 768 * 1024, "shared L2 size in bytes", 0, \
      64u << 20) \
    X(P, K, U32, ways, 16, "shared L2 associativity") \
    X(P, K, U32, hit_latency, 30, \
      "interconnect + L2 access latency in cycles") \
    X(P, K, U32, slices, 1, \
      "address-interleaved L2 slices (power of two dividing the " \
      "set count; 1 = monolithic legacy L2)") \
    X(P, K, U32, mshrs_per_slice, 0, \
      "in-flight misses tracked per L2 slice (fills install tags " \
      "on completion, same-block requests merge; 0 = legacy " \
      "immediate tag install)") \
    X(P, K, U32, tag_cycles, 0, \
      "cycles a slice tag pipeline is busy per lookup (0 = fully " \
      "pipelined)")

/**
 * Shared L2 geometry and timing (Fermi-like chip defaults). Its
 * blocks are the L1's, so the block size is a constructor argument
 * of the backends, not a field here.
 */
struct L2Config
{
    SIWI_L2_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )
};

/** Shared-L2 statistics (chip level, not per SM). */
struct L2Stats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 writes = 0; //!< write-throughs passed to DRAM

    bool operator==(const L2Stats &) const = default;
};

/**
 * Chip-level shared L2 in front of a single DRAM channel.
 *
 * Tag-only and inclusive of nothing in particular: reads allocate,
 * writes are write-through no-allocate (matching the L1 policy), and
 * fills are modeled as immediate tag installs — the *latency* of a
 * miss is carried by the returned ready cycle, not by a delayed tag
 * update, which keeps the shared structure usable by several SMs
 * without an event queue.
 *
 * Kept as the reference monolithic model: BankedL2 with one slice,
 * one channel and a free interconnect must match it bit-identically
 * (tested), and chips now always instantiate BankedL2.
 */
class SharedL2 final : public MemoryBackend
{
  public:
    /** @p block_bytes is the block size of the L1s it serves. */
    SharedL2(const L2Config &cfg, u32 block_bytes,
             const DramConfig &dram);

    Cycle read(Cycle now, Addr block, u32 bytes,
               unsigned port) override;
    void write(Cycle now, Addr block, u32 bytes,
               unsigned port) override;
    void invalidate() override;

    const L2Stats &stats() const { return stats_; }
    const DramStats &dramStats() const override
    {
        return dram_.stats();
    }
    const L2Config &config() const { return cfg_; }

  private:
    L2Config cfg_;
    L1Cache tags_; //!< reused set-associative LRU tag array
    Dram dram_;
    L2Stats stats_;
};

} // namespace siwi::mem

#endif // SIWI_MEM_BACKEND_HH
