/**
 * @file
 * Timing glue between the LSU and the L1 / backend models.
 */

#ifndef SIWI_MEM_MEMORY_SYSTEM_HH
#define SIWI_MEM_MEMORY_SYSTEM_HH

#include <vector>

#include "mem/backend.hh"
#include "mem/cache.hh"
#include "mem/mshr_file.hh"

namespace siwi::mem {

/**
 * MemConfig's fields (common/field_list.hh). The write-combining
 * buffer serves the write-through store path: repeated stores to a
 * resident block merge and drain to DRAM once on eviction (stands
 * in for the shared/local-memory traffic the paper's benchmarks
 * kept on chip).
 */
#define SIWI_MEM_CONFIG_FIELDS(X, S, P, K) \
    X(P, K, STRUCT, l1, CacheConfig) \
    SIWI_CACHE_CONFIG_FIELDS(S, S, P l1., K "l1_") \
    X(P, K, U32, mshrs, 64, "max in-flight missed blocks") \
    X(P, K, U32, write_buffer_entries, 8, \
      "write-combining buffer entries", 0, 1024)

/**
 * Per-SM memory-system parameters (Table 2 of the paper). The DRAM
 * behind them is the chip's (core::GpuConfig::dram).
 */
struct MemConfig
{
    SIWI_MEM_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )
};

/** Memory-system statistics. */
struct MemStats
{
    u64 load_transactions = 0;
    u64 store_transactions = 0;
    u64 write_combines = 0;
    u64 write_forwards = 0; //!< loads served from the write buffer
    u64 mshr_merges = 0;
    u64 mshr_stalls = 0;
};

/**
 * Timing-only memory hierarchy below the LSU.
 *
 * One call = one coalesced 128-byte transaction through the LSU's
 * single L1 port. Loads probe the L1; misses allocate an MSHR and go
 * to the backend, with same-block misses merged. Stores are
 * write-through no-allocate and only consume backend bandwidth.
 *
 * The backend belongs to the chip (core::Gpu): a private DRAM
 * channel for the paper's single SM, the shared L2+DRAM of a
 * multi-SM chip otherwise. Its statistics are reported by the
 * chip, not per SM.
 */
class MemorySystem
{
  public:
    /**
     * @p backend is not owned and must outlive this system;
     * @p port is this SM's interconnect port on it (the SM index).
     */
    MemorySystem(const MemConfig &cfg, MemoryBackend &backend,
                 unsigned port = 0);

    /**
     * Issue a load transaction for @p block at @p now.
     * @return the data-ready cycle. A load to a block resident in
     *         the write-combining buffer is forwarded at hit
     *         latency; when all MSHRs are busy the request waits
     *         for the slot that frees first (counted in stats as
     *         an MSHR stall).
     */
    Cycle load(Cycle now, Addr block);

    /**
     * Issue a store transaction of @p bytes payload at @p now.
     * Fire-and-forget: returns the cycle the LSU may consider the
     * store retired (next cycle).
     */
    Cycle store(Cycle now, Addr block, u32 bytes);

    /** Retire completed fills; called once per cycle. */
    void tick(Cycle now);

    /**
     * Earliest cycle at or after @p now at which this system
     * changes state on its own: the minimum pending
     * fill-completion time (a fill retires in tick(fill), before
     * issue in that cycle; overdue fills clamp to @p now), or
     * no_wake when nothing is in flight. Everything else in here
     * is demand-driven — load/store calls, and the backend, which
     * is passive (see MemoryBackend) — so a caller that
     * sleeps until the returned cycle and ticks then observes
     * exactly the behavior of one ticking every cycle: fills
     * retire in a batch, and no query can see the difference in
     * between.
     */
    Cycle nextWake(Cycle now) const;

    /**
     * Reset cache/tags between kernels (stats persist). The write
     * buffer drains at @p now — the drain traffic competes for
     * backend bandwidth from the current cycle onward.
     */
    void invalidate(Cycle now);

    /**
     * MSHRs busy at @p now: misses whose backend request has
     * started (a queued miss holds no slot yet) and whose fill
     * has not completed. Never exceeds config().mshrs.
     */
    unsigned mshrOccupancy(Cycle now) const;

    const MemStats &stats() const { return stats_; }
    const CacheStats &cacheStats() const { return l1_.stats(); }
    const MemConfig &config() const { return cfg_; }

  private:
    struct WriteBufEntry
    {
        bool valid = false;
        Addr block = 0;
        u32 bytes = 0;
        u64 last_use = 0;
    };

    void drainWriteBuf(Cycle now, WriteBufEntry &e);

    MemConfig cfg_;
    L1Cache l1_;
    MemoryBackend *backend_;
    unsigned port_ = 0; //!< interconnect port on a shared backend
    /**
     * In-flight missed blocks. tick() and nextWake() read its
     * earliest-fill cursor instead of walking it.
     */
    MshrFile mshrs_;
    std::vector<WriteBufEntry> wbuf_;
    u64 wbuf_use_ = 0;
    MemStats stats_;
};

} // namespace siwi::mem

#endif // SIWI_MEM_MEMORY_SYSTEM_HH
