#include "mem/memory_system.hh"

#include <algorithm>

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
    // there. Otherwise fill every line whose backend response has
    // arrived, in block order.
    mshrs_.retire(now, l1_);
}

Cycle
MemorySystem::nextWake(Cycle now) const
{
    // A fill retires in tick(fill), freeing its MSHR before issue
    // in that same cycle — so the wake is the fill cycle itself.
    // Overdue fills (possible only if tick was not called every
    // cycle) retire at the very next tick, hence the clamp to now;
    // with nothing in flight the cursor is no_wake.
    return std::max(mshrs_.nextFill(), now);
}

unsigned
MemorySystem::mshrOccupancy(Cycle now) const
{
    return mshrs_.occupancy(now);
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

    // Merge with an in-flight miss to the same block; the same
    // pass counts the fills still pending at @p now.
    size_t pending = 0;
    if (const MshrFile::Miss *m = mshrs_.find(block, now, &pending)) {
        ++stats_.mshr_merges;
        return m->fill + l1_.config().hit_latency;
    }

    // An MSHR is held from the cycle its backend request starts
    // until the fill completes. When every slot is busy at @p now
    // the new miss queues until one frees — each queued miss
    // behind a *different* slot, so at most cfg_.mshrs misses are
    // ever outstanding at once: it starts when the
    // (pending - mshrs + 1)-th pending fill completes, after which
    // fewer than cfg_.mshrs fills are still outstanding.
    Cycle start = now;
    if (pending >= cfg_.mshrs) {
        ++stats_.mshr_stalls;
        start = mshrs_.kthPendingFill(now, pending - cfg_.mshrs);
    }

    Cycle fill = backend_->read(start, block,
                                l1_.config().block_bytes, port_);
    mshrs_.add(block, start, fill);
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
    mshrs_.clear();
}

} // namespace siwi::mem
