#include "pipeline/mask_lookup.hh"

#include "common/log.hh"

namespace siwi::pipeline {

MaskLookup::MaskLookup(unsigned num_warps, unsigned sets, u64 seed)
    : members_(sets, WarpSet(num_warps)), rng_(seed)
{
    siwi_assert(sets >= 1 && sets <= num_warps,
                "bad lookup set count");
    for (WarpId w = 0; w < num_warps; ++w)
        members_[w % sets].insert(w);
}

} // namespace siwi::pipeline
