/**
 * @file
 * Functional backing store for the simulated global memory.
 */

#ifndef SIWI_MEM_MEMORY_IMAGE_HH
#define SIWI_MEM_MEMORY_IMAGE_HH

#include <array>
#include <map>
#include <span>
#include <vector>

#include "common/lane_mask.hh"
#include "common/types.hh"

namespace siwi::mem {

/** A single lane's access, as produced by exec::memAddresses. */
struct LaneAccess
{
    unsigned lane;
    Addr addr;
};

/**
 * A fixed buffer of at most one item per lane of a warp (64, the
 * width of a LaneMask), filled in order: the LSU's per-access
 * scratch, so an issue never allocates. Its fillers produce at
 * most one item per lane of a LaneMask, so it cannot overflow.
 */
template <typename T> class LaneBuffer
{
  public:
    static constexpr unsigned capacity = 64;

    void clear() { size_ = 0; }
    void push_back(const T &item) { items_[size_++] = item; }

    unsigned size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &operator[](unsigned i) { return items_[i]; }
    const T &operator[](unsigned i) const { return items_[i]; }
    const T *begin() const { return items_; }
    const T *end() const { return items_ + size_; }

    operator std::span<const T>() const { return {items_, size_}; }

  private:
    T items_[capacity] = {};
    unsigned size_ = 0;
};

/** One warp access's lane addresses, ascending lane order. */
using LaneAccesses = LaneBuffer<LaneAccess>;

/**
 * Sparse, page-granular memory image.
 *
 * The ISA only issues naturally-aligned 4-byte accesses. The image
 * keeps zero-filled 4 KiB pages of 32-bit words, created by the
 * first write that touches them; unwritten memory reads as zero,
 * which workloads rely on for output buffers.
 */
class MemoryImage
{
  public:
    /** Read a 32-bit word at 4-byte-aligned address @p addr. */
    u32 read32(Addr addr) const;

    /** Write a 32-bit word at 4-byte-aligned address @p addr. */
    void write32(Addr addr, u32 value);

    float readF32(Addr addr) const;
    void writeF32(Addr addr, float value);

    /** Bulk-read @p count words starting at @p base. */
    std::vector<u32> readWords(Addr base, size_t count) const;

    /**
     * Load: for each access whose lane is in @p lanes, set
     * @p row[lane] to the word at its address. A warp's accesses
     * mostly share a page, which is looked up once per run.
     */
    void gather(std::span<const LaneAccess> accesses, LaneMask lanes,
                u32 *row) const;

    /**
     * Store: for each access whose lane is in @p lanes, in order,
     * write @p row[lane] to its address. When two lanes write one
     * address, the later access's value lands.
     */
    void scatter(std::span<const LaneAccess> accesses, LaneMask lanes,
                 const u32 *row);

  private:
    static constexpr unsigned page_bits = 12;
    static constexpr size_t page_words = (size_t(1) << page_bits) / 4;
    using Page = std::array<u32, page_words>;

    /** Page number of @p addr; panics unless it is 4-byte aligned. */
    static Addr pageOf(Addr addr);
    /** Index of @p addr's word within its page. */
    static size_t
    wordOf(Addr addr)
    {
        return (addr >> 2) & (page_words - 1);
    }

    std::map<Addr, Page> pages_; //!< keyed by page number
};

} // namespace siwi::mem

#endif // SIWI_MEM_MEMORY_IMAGE_HH
