/**
 * @file
 * L1 data cache timing model (tag-only).
 *
 * Matches the paper's Table 2: 48 KB, 6-way, 128-byte blocks, 3-cycle
 * hit latency. Data values live in the functional MemoryImage; this
 * model tracks tags and replacement for timing purposes only.
 */

#ifndef SIWI_MEM_CACHE_HH
#define SIWI_MEM_CACHE_HH

#include <vector>

#include "common/field_list.hh"

namespace siwi::mem {

/** CacheConfig's fields (common/field_list.hh), as the SM's L1. */
#define SIWI_CACHE_CONFIG_FIELDS(X, S, P, K) \
    X(P, K, U32, size_bytes, 48 * 1024, \
      "L1 data cache size in bytes", 0, 16u << 20) \
    X(P, K, U32, ways, 6, "L1 associativity") \
    X(P, K, U32, block_bytes, 128, "L1 block size in bytes") \
    X(P, K, U32, hit_latency, 3, "L1 hit latency in cycles")

/** Cache geometry and timing. */
struct CacheConfig
{
    SIWI_CACHE_CONFIG_FIELDS(SIWI_CFG_MEMBER, SIWI_CFG_NONE, , )
};

/** Aggregate cache statistics. */
struct CacheStats
{
    u64 hits = 0;
    u64 misses = 0;
    u64 evictions = 0;
};

/**
 * Set-associative, LRU, tag-only cache.
 *
 * Loads allocate on fill; stores are write-through no-allocate (the
 * Fermi-style global-memory policy) and bypass the tag array.
 */
class L1Cache
{
  public:
    explicit L1Cache(const CacheConfig &cfg);

    /**
     * Look up @p block (block-aligned). On hit, updates LRU and
     * returns true; on miss returns false without allocating.
     */
    bool access(Addr block);

    /** True when @p block is resident (no LRU update). */
    bool probe(Addr block) const;

    /** Allocate @p block, evicting the set's LRU way if needed. */
    void fill(Addr block);

    /** Invalidate everything (kernel boundary). */
    void invalidateAll();

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return cfg_; }
    u32 numSets() const { return num_sets_; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        u64 lru = 0; //!< last-use counter
    };

    u32 setIndex(Addr block) const;
    Addr tagOf(Addr block) const;

    CacheConfig cfg_;
    u32 num_sets_;
    std::vector<Line> lines_; //!< num_sets_ * ways, set-major
    u64 use_counter_ = 0;
    CacheStats stats_;
};

} // namespace siwi::mem

#endif // SIWI_MEM_CACHE_HH
