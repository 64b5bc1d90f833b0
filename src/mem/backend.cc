#include "mem/backend.hh"

namespace siwi::mem {

namespace {

CacheConfig
l2TagConfig(const L2Config &cfg, u32 block_bytes)
{
    CacheConfig c;
    c.size_bytes = cfg.size_bytes;
    c.ways = cfg.ways;
    c.block_bytes = block_bytes;
    c.hit_latency = cfg.hit_latency;
    return c;
}

/** One unbounded channel at @p cfg's bandwidth and latency. */
DramConfig
privateChannel(const DramConfig &cfg)
{
    DramConfig c;
    c.bytes_per_cycle_x10 = cfg.bytes_per_cycle_x10;
    c.latency_cycles = cfg.latency_cycles;
    return c;
}

} // namespace

DramBackend::DramBackend(const DramConfig &cfg)
    : dram_(privateChannel(cfg))
{
}

SharedL2::SharedL2(const L2Config &cfg, u32 block_bytes,
                   const DramConfig &dram)
    : cfg_(cfg), tags_(l2TagConfig(cfg, block_bytes)), dram_(dram)
{
}

Cycle
SharedL2::read(Cycle now, Addr block, u32 bytes, unsigned port)
{
    (void)port;
    if (tags_.access(block)) {
        ++stats_.hits;
        return now + cfg_.hit_latency;
    }
    ++stats_.misses;
    // The DRAM request leaves after the L2 lookup; the tag installs
    // immediately so a second SM hitting the same block pays the L2
    // hit price (standing in for an L2 MSHR merge).
    Cycle ready = dram_.serve(now + cfg_.hit_latency, bytes);
    tags_.fill(block);
    return ready;
}

void
SharedL2::write(Cycle now, Addr block, u32 bytes, unsigned port)
{
    (void)port;
    ++stats_.writes;
    // Write-through no-allocate, like the L1s in front: the write
    // crosses the L2 and consumes DRAM bandwidth.
    (void)block;
    dram_.serve(now + cfg_.hit_latency, bytes);
}

void
SharedL2::invalidate()
{
    tags_.invalidateAll();
}

} // namespace siwi::mem
