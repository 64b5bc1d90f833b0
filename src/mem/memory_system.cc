#include "mem/memory_system.hh"

#include <algorithm>
#include <vector>

#include "common/log.hh"

namespace siwi::mem {

MemorySystem::MemorySystem(const MemConfig &cfg,
                           MemoryBackend &backend, unsigned port)
    : cfg_(cfg), l1_(cfg.l1), backend_(&backend), port_(port),
      wbuf_(cfg.write_buffer_entries)
{
    siwi_assert(cfg_.mshrs >= 1, "memory system with no MSHRs");
}

void
MemorySystem::tick(Cycle now)
{
    // Nothing is due before the earliest fill: most ticks stop
    // here. Otherwise fill every line whose backend response has
    // arrived, in block order, and find the next earliest fill.
    if (next_fill_ > now)
        return;
    next_fill_ = no_wake;
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->second.fill <= now) {
            l1_.fill(it->first);
            it = inflight_.erase(it);
        } else {
            next_fill_ = std::min(next_fill_, it->second.fill);
            ++it;
        }
    }
}

Cycle
MemorySystem::nextWake(Cycle now) const
{
    // A fill retires in tick(fill), freeing its MSHR before issue
    // in that same cycle — so the wake is the fill cycle itself.
    // Overdue fills (possible only if tick was not called every
    // cycle) retire at the very next tick, hence the clamp to now;
    // with nothing in flight next_fill_ is no_wake.
    return std::max(next_fill_, now);
}

unsigned
MemorySystem::mshrOccupancy(Cycle now) const
{
    unsigned busy = 0;
    for (const auto &[blk, m] : inflight_)
        busy += m.start <= now && now < m.fill;
    return busy;
}

Cycle
MemorySystem::load(Cycle now, Addr block)
{
    ++stats_.load_transactions;

    if (l1_.access(block))
        return now + l1_.config().hit_latency;

    // Forward from a resident write-combining entry: the block's
    // freshest bytes are still on chip, no backend trip needed.
    for (const WriteBufEntry &e : wbuf_) {
        if (e.valid && e.block == block) {
            ++stats_.write_forwards;
            return now + l1_.config().hit_latency;
        }
    }

    // Merge with an in-flight miss to the same block.
    auto it = inflight_.find(block);
    if (it != inflight_.end()) {
        ++stats_.mshr_merges;
        return it->second.fill + l1_.config().hit_latency;
    }

    // An MSHR is held from the cycle its backend request starts
    // until the fill completes. When every slot is busy at @p now
    // the new miss queues until one frees — each queued miss
    // behind a *different* slot, so at most cfg_.mshrs misses are
    // ever outstanding at once. This is the LSU's hottest path:
    // only collect the pending fills (into a reused buffer) once
    // the cheap count says every slot is actually busy.
    Cycle start = now;
    size_t pending = 0;
    for (const auto &[blk, m] : inflight_)
        pending += m.fill > now;
    if (pending >= cfg_.mshrs) {
        ++stats_.mshr_stalls;
        pending_scratch_.clear();
        for (const auto &[blk, m] : inflight_) {
            if (m.fill > now)
                pending_scratch_.push_back(m.fill);
        }
        // The time the (size - mshrs + 1)-th slot frees: from then
        // on fewer than cfg_.mshrs fills are still outstanding.
        auto kth = pending_scratch_.begin() +
                   long(pending - cfg_.mshrs);
        std::nth_element(pending_scratch_.begin(), kth,
                         pending_scratch_.end());
        start = *kth;
    }

    Cycle fill = backend_->read(start, block,
                                l1_.config().block_bytes, port_);
    inflight_[block] = {start, fill};
    next_fill_ = std::min(next_fill_, fill);
    siwi_assert(mshrOccupancy(start) <= cfg_.mshrs,
                "MSHR over-admission");
    return fill + l1_.config().hit_latency;
}

void
MemorySystem::drainWriteBuf(Cycle now, WriteBufEntry &e)
{
    if (!e.valid)
        return;
    backend_->write(now, e.block, e.bytes, port_);
    e.valid = false;
}

Cycle
MemorySystem::store(Cycle now, Addr block, u32 bytes)
{
    ++stats_.store_transactions;

    if (wbuf_.empty()) {
        // No write buffer: plain write-through.
        backend_->write(now, block, bytes, port_);
        return now + 1;
    }

    // Merge into a resident write-combining entry.
    for (WriteBufEntry &e : wbuf_) {
        if (e.valid && e.block == block) {
            e.bytes = std::min(l1_.config().block_bytes,
                               e.bytes + bytes);
            e.last_use = ++wbuf_use_;
            ++stats_.write_combines;
            return now + 1;
        }
    }
    // Allocate: free entry if any, else evict the LRU one.
    WriteBufEntry *victim = &wbuf_[0];
    for (WriteBufEntry &e : wbuf_) {
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.last_use < victim->last_use)
            victim = &e;
    }
    drainWriteBuf(now, *victim);
    victim->valid = true;
    victim->block = block;
    victim->bytes = bytes;
    victim->last_use = ++wbuf_use_;
    return now + 1;
}

void
MemorySystem::invalidate(Cycle now)
{
    for (WriteBufEntry &e : wbuf_)
        drainWriteBuf(now, e);
    l1_.invalidateAll();
    inflight_.clear();
    next_fill_ = no_wake;
}

} // namespace siwi::mem
