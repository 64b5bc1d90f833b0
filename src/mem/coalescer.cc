#include "mem/coalescer.hh"

#include "common/bits.hh"
#include "common/log.hh"

namespace siwi::mem {

std::vector<Transaction>
coalesce(std::span<const LaneAccess> accesses, unsigned block_bytes)
{
    siwi_assert(isPow2(block_bytes), "block size must be power of 2");
    const Addr mask = ~Addr(block_bytes - 1);

    std::vector<Transaction> txns;
    for (const LaneAccess &acc : accesses) {
        Addr block = acc.addr & mask;
        bool merged = false;
        for (Transaction &t : txns) {
            if (t.block == block) {
                t.lanes.set(acc.lane);
                merged = true;
                break;
            }
        }
        if (!merged)
            txns.push_back({block, LaneMask::lane(acc.lane)});
    }
    return txns;
}

} // namespace siwi::mem
