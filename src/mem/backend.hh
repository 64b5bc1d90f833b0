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
 * Shared L2 geometry and timing (Fermi-like chip defaults). Its
 * blocks are the L1's, so the block size is a constructor argument
 * of the backends, not a field here.
 */
struct L2Config
{
    u32 size_bytes = 768 * 1024;
    u32 ways = 16;
    u32 hit_latency = 30; //!< interconnect + L2 access
    /**
     * Address-interleaved L2 slices (BankedL2 only). Each slice
     * owns size_bytes/slices of capacity, its own tag pipeline and
     * MSHR file, and serves an interleaved share of the block
     * address space. Must be a power of two dividing the set
     * count. 1 reproduces the legacy monolithic SharedL2 timing
     * bit-identically.
     */
    u32 slices = 1;
    /**
     * In-flight misses a slice tracks in its own MSHR file: fills
     * install tags when they complete (not at request time), and
     * same-block requests merge onto the outstanding fill. When
     * the file is full a new miss waits for the earliest slot. 0
     * keeps the legacy immediate-tag-install approximation (a
     * miss installs its tag at lookup time; no slice-level
     * occupancy is tracked).
     */
    u32 mshrs_per_slice = 0;
    /**
     * Cycles a slice's tag pipeline is busy per lookup: back-to-
     * back requests to one slice serialize at this rate while
     * other slices proceed in parallel (the point of banking). 0
     * models a fully pipelined tag array (legacy behavior).
     */
    u32 tag_cycles = 0;
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
