#include "pipeline/scoreboard.hh"

#include "common/log.hh"

namespace siwi::pipeline {

Scoreboard::Scoreboard(unsigned num_warps, unsigned entries_per_warp)
    : entries_per_warp_(entries_per_warp),
      entries_(size_t(num_warps) * entries_per_warp)
{
}

const Scoreboard::Entry &
Scoreboard::entry(WarpId w, unsigned i) const
{
    siwi_assert(i < entries_per_warp_, "bad scoreboard index");
    return entries_[size_t(w) * entries_per_warp_ + i];
}

Scoreboard::Entry &
Scoreboard::entry(WarpId w, unsigned i)
{
    siwi_assert(i < entries_per_warp_, "bad scoreboard index");
    return entries_[size_t(w) * entries_per_warp_ + i];
}

bool
Scoreboard::hasFreeEntry(WarpId w) const
{
    for (unsigned i = 0; i < entries_per_warp_; ++i) {
        if (!entry(w, i).valid)
            return true;
    }
    return false;
}

unsigned
Scoreboard::used(WarpId w) const
{
    unsigned n = 0;
    for (unsigned i = 0; i < entries_per_warp_; ++i)
        n += entry(w, i).valid ? 1 : 0;
    return n;
}

unsigned
Scoreboard::allocate(WarpId w, RegIdx dst, LaneMask mask)
{
    for (unsigned i = 0; i < entries_per_warp_; ++i) {
        Entry &e = entry(w, i);
        if (!e.valid) {
            e.valid = true;
            e.dst = dst;
            e.mask = mask;
            return i;
        }
    }
    panic("scoreboard full on allocate");
}

void
Scoreboard::release(WarpId w, unsigned idx)
{
    Entry &e = entry(w, idx);
    siwi_assert(e.valid, "releasing free scoreboard entry");
    e.valid = false;
}

bool
Scoreboard::conflicts(WarpId w, u64 hazard, LaneMask mask) const
{
    const Entry *first = &entry(w, 0);
    for (unsigned i = 0; i < entries_per_warp_; ++i) {
        const Entry &e = first[i];
        if (e.valid && e.mask.intersects(mask) &&
            ((hazard >> e.dst) & 1))
            return true;
    }
    return false;
}

void
Scoreboard::flushWarp(WarpId w)
{
    for (unsigned i = 0; i < entries_per_warp_; ++i)
        entry(w, i).valid = false;
}

} // namespace siwi::pipeline
