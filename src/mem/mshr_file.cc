#include "mem/mshr_file.hh"

#include <algorithm>

namespace siwi::mem {

namespace {

/**
 * Move the misses whose fill is after @p now to the front of
 * @p misses, in no order (the file's order is free), and return the
 * end of that range.
 */
auto
pendingFirst(std::vector<MshrFile::Miss> &misses, Cycle now)
{
    return std::partition(misses.begin(), misses.end(),
                          [now](const MshrFile::Miss &m) {
                              return m.fill > now;
                          });
}

} // namespace

Cycle
MshrFile::kthPendingFill(Cycle now, size_t k)
{
    const auto pending_end = pendingFirst(misses_, now);
    const auto kth = misses_.begin() + long(k);
    std::nth_element(misses_.begin(), kth, pending_end,
                     [](const Miss &a, const Miss &b) {
                         return a.fill < b.fill;
                     });
    return kth->fill;
}

void
MshrFile::retireDue(Cycle now, L1Cache &cache)
{
    const auto due = pendingFirst(misses_, now);
    std::sort(due, misses_.end(), [](const Miss &a, const Miss &b) {
        return a.block < b.block;
    });
    for (auto it = due; it != misses_.end(); ++it)
        cache.fill(it->block);
    misses_.erase(due, misses_.end());
    next_fill_ = no_wake;
    for (const Miss &m : misses_)
        next_fill_ = std::min(next_fill_, m.fill);
}

unsigned
MshrFile::occupancy(Cycle now) const
{
    unsigned busy = 0;
    for (const Miss &m : misses_)
        busy += m.start <= now && now < m.fill;
    return busy;
}

void
MshrFile::clear()
{
    misses_.clear();
    next_fill_ = no_wake;
}

} // namespace siwi::mem
