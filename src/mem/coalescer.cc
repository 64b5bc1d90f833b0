#include "mem/coalescer.hh"

#include "common/bits.hh"
#include "common/log.hh"

namespace siwi::mem {

void
coalesce(std::span<const LaneAccess> accesses, unsigned block_bytes,
         Transactions &out)
{
    siwi_assert(isPow2(block_bytes), "block size must be power of 2");
    const Addr mask = ~Addr(block_bytes - 1);

    out.clear();
    for (const LaneAccess &acc : accesses) {
        const Addr block = acc.addr & mask;
        // Blocks are distinct, so the search order does not matter;
        // neighbouring lanes mostly share the newest transaction's.
        unsigned i = out.size();
        while (i > 0 && out[i - 1].block != block)
            --i;
        if (i > 0)
            out[i - 1].lanes.set(acc.lane);
        else
            out.push_back({block, LaneMask::lane(acc.lane)});
    }
}

Transaction
firstTransaction(std::span<const LaneAccess> accesses,
                 unsigned block_bytes, bool *more)
{
    siwi_assert(isPow2(block_bytes), "block size must be power of 2");
    siwi_assert(!accesses.empty(), "first transaction of no access");
    const Addr mask = ~Addr(block_bytes - 1);

    Transaction first{accesses.front().addr & mask, LaneMask()};
    bool outside = false;
    for (const LaneAccess &acc : accesses) {
        const bool in = (acc.addr & mask) == first.block;
        first.lanes |= LaneMask(u64(in) << acc.lane);
        outside |= !in;
    }
    *more = outside;
    return first;
}

} // namespace siwi::mem
