#include "mem/memory_image.hh"

#include <bit>

#include "common/log.hh"

namespace siwi::mem {

Addr
MemoryImage::pageOf(Addr addr)
{
    siwi_assert((addr & 3) == 0,
                "unaligned 32-bit access at 0x", std::hex, addr);
    return addr >> page_bits;
}

u32
MemoryImage::read32(Addr addr) const
{
    auto it = pages_.find(pageOf(addr));
    return it == pages_.end() ? 0 : it->second[wordOf(addr)];
}

void
MemoryImage::write32(Addr addr, u32 value)
{
    pages_[pageOf(addr)][wordOf(addr)] = value;
}

float
MemoryImage::readF32(Addr addr) const
{
    return std::bit_cast<float>(read32(addr));
}

void
MemoryImage::writeF32(Addr addr, float value)
{
    write32(addr, std::bit_cast<u32>(value));
}

std::vector<u32>
MemoryImage::readWords(Addr base, size_t count) const
{
    std::vector<u32> out(count);
    for (size_t i = 0; i < count; ++i)
        out[i] = read32(base + Addr(i) * 4);
    return out;
}

// A page number is at most 2^(64 - page_bits) - 1, so an all-ones
// "current page" matches no access and forces the first lookup.

void
MemoryImage::gather(std::span<const LaneAccess> accesses, LaneMask lanes,
                    u32 *row) const
{
    Addr cur = ~Addr(0);
    const Page *page = nullptr; // null: page cur was never written
    for (const LaneAccess &a : accesses) {
        if (!lanes.test(a.lane))
            continue;
        const Addr n = pageOf(a.addr);
        if (n != cur) {
            auto it = pages_.find(n);
            page = it == pages_.end() ? nullptr : &it->second;
            cur = n;
        }
        row[a.lane] = page ? (*page)[wordOf(a.addr)] : 0;
    }
}

void
MemoryImage::scatter(std::span<const LaneAccess> accesses,
                     LaneMask lanes, const u32 *row)
{
    Addr cur = ~Addr(0);
    Page *page = nullptr;
    for (const LaneAccess &a : accesses) {
        if (!lanes.test(a.lane))
            continue;
        const Addr n = pageOf(a.addr);
        if (n != cur) {
            page = &pages_[n];
            cur = n;
        }
        (*page)[wordOf(a.addr)] = row[a.lane];
    }
}

} // namespace siwi::mem
