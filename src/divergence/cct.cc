#include "divergence/cct.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/log.hh"

namespace siwi::divergence {

Cct::Cct(unsigned capacity, unsigned steps_per_cycle)
    : capacity_(capacity),
      steps_per_cycle_(std::max(1u, steps_per_cycle))
{
}

void
Cct::reset()
{
    list_.clear();
    pending_.reset();
    pending_ready_ = 0;
    stats_ = CctStats{};
}

unsigned
Cct::size() const
{
    return unsigned(list_.size()) + (pending_ ? 1 : 0);
}

void
Cct::finishPending()
{
    if (!pending_)
        return;
    // Sorted insertion at the position the walk found.
    auto it = std::find_if(list_.begin(), list_.end(),
                           [&](const Entry &e) {
                               return e.pc > pending_->pc;
                           });
    list_.insert(it, *pending_);
    pending_.reset();
}

void
Cct::insert(u32 id, Pc pc, Cycle now)
{
    siwi_assert(!full(), "CCT overflow");
    ++stats_.inserts;

    if (pending_) {
        // Sideband sorter busy: degrade to a stack (head push).
        ++stats_.degraded_inserts;
        list_.insert(list_.begin(), {id, pc});
    } else {
        // Walk length: entries passed before the insertion point.
        unsigned walk = 0;
        for (const Entry &e : list_) {
            if (e.pc > pc)
                break;
            ++walk;
        }
        Cycle latency = divCeil(walk + 1, steps_per_cycle_);
        pending_ = Entry{id, pc};
        pending_ready_ = now + latency;
    }
    stats_.max_size = std::max(stats_.max_size, size());
}

bool
Cct::tick(Cycle now)
{
    if (pending_ && now >= pending_ready_) {
        finishPending();
        return true;
    }
    return false;
}

std::optional<Cct::Entry>
Cct::pop(Cycle now)
{
    (void)now;
    if (!list_.empty()) {
        Entry e = list_.front();
        list_.erase(list_.begin());
        ++stats_.pops;
        return e;
    }
    if (pending_) {
        Entry e = *pending_;
        pending_.reset();
        ++stats_.pops;
        return e;
    }
    return std::nullopt;
}

std::optional<Pc>
Cct::minPc() const
{
    std::optional<Pc> best;
    for (const Entry &e : list_) {
        if (!best || e.pc < *best)
            best = e.pc;
    }
    if (pending_ && (!best || pending_->pc < *best))
        best = pending_->pc;
    return best;
}

std::optional<u32>
Cct::findByPc(Pc pc) const
{
    for (const Entry &e : list_) {
        if (e.pc == pc)
            return e.id;
    }
    if (pending_ && pending_->pc == pc)
        return pending_->id;
    return std::nullopt;
}

void
Cct::eraseId(u32 id)
{
    for (auto it = list_.begin(); it != list_.end(); ++it) {
        if (it->id == id) {
            list_.erase(it);
            return;
        }
    }
    if (pending_ && pending_->id == id) {
        pending_.reset();
        return;
    }
    panic("Cct::eraseId: id not stored");
}

std::optional<Cct::Entry>
Cct::popMin(Cycle now)
{
    (void)now;
    if (empty())
        return std::nullopt;
    // Consider the parked entry too.
    auto it = std::min_element(list_.begin(), list_.end(),
                               [](const Entry &a, const Entry &b) {
                                   return a.pc < b.pc;
                               });
    if (pending_ &&
        (it == list_.end() || pending_->pc < it->pc)) {
        Entry e = *pending_;
        pending_.reset();
        ++stats_.pops;
        return e;
    }
    Entry e = *it;
    list_.erase(it);
    ++stats_.pops;
    return e;
}

} // namespace siwi::divergence
