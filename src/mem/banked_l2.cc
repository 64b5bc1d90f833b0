#include "mem/banked_l2.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/log.hh"

namespace siwi::mem {

namespace {

CacheConfig
sliceTagConfig(const L2Config &cfg, u32 block_bytes)
{
    CacheConfig c;
    c.size_bytes = cfg.size_bytes / cfg.slices;
    c.ways = cfg.ways;
    c.block_bytes = block_bytes;
    c.hit_latency = cfg.hit_latency;
    return c;
}

/**
 * XOR-fold @p x into log2(buckets) bits. Folding (rather than
 * taking the low bits) hashes every address bit into the bucket
 * index, so power-of-two strides — ubiquitous in the row/column
 * access patterns of the workload suite — still spread across
 * buckets instead of aliasing onto one.
 */
u32
xorFold(u64 x, u32 buckets)
{
    if (buckets <= 1)
        return 0;
    unsigned bits = log2Floor(buckets);
    u64 fold = 0;
    while (x) {
        fold ^= x & (buckets - 1);
        x >>= bits;
    }
    return u32(fold);
}

} // namespace

u32
BankedL2::sliceOf(Addr block, u32 block_bytes, u32 slices)
{
    return xorFold(block / block_bytes, slices);
}

u32
BankedL2::channelOf(Addr block, u32 block_bytes, u32 slices,
                    u32 channels)
{
    // Fold the bits above the slice digit so consecutive blocks
    // walk slices first, then channels: an aligned window of
    // slices*channels blocks covers every (slice, channel) pair
    // exactly once.
    u64 bn = block / block_bytes;
    return xorFold(bn >> log2Floor(u64(std::max(slices, 1u))),
                   channels);
}

BankedL2::BankedL2(const L2Config &cfg, u32 block_bytes,
                   const DramConfig &dram, const NocConfig &noc,
                   unsigned ports)
    : cfg_(cfg), block_bytes_(block_bytes), noc_(noc)
{
    siwi_assert(cfg_.slices >= 1 && isPow2(cfg_.slices),
                "l2_slices must be a nonzero power of two");
    siwi_assert(dram.channels >= 1 && isPow2(dram.channels),
                "dram_channels must be a nonzero power of two");
    siwi_assert(ports >= 1, "banked L2 with no ports");
    CacheConfig tag_cfg = sliceTagConfig(cfg_, block_bytes_);
    slices_.reserve(cfg_.slices);
    for (u32 s = 0; s < cfg_.slices; ++s)
        slices_.emplace_back(tag_cfg);
    channels_.reserve(dram.channels);
    for (u32 c = 0; c < dram.channels; ++c)
        channels_.emplace_back(dram);
    ports_.resize(ports);
}

Cycle
BankedL2::inject(Cycle now, u32 bytes, unsigned port)
{
    siwi_assert(port < ports_.size(), "bad interconnect port");
    Port &p = ports_[port];
    ++p.stats.requests;
    p.stats.bytes += bytes;
    if (noc_.port_bytes_per_cycle_x10 == 0)
        return now + noc_.request_latency;
    // Same tenths-of-a-cycle pipe as Dram: the block transfer
    // serializes through the SM's port before crossing the NoC.
    u64 now_tenths = now * 10;
    u64 start = std::max(now_tenths, p.next_free_tenths);
    p.stats.stall_tenths += start - now_tenths;
    u64 duration =
        divCeil(u64(bytes) * 100, noc_.port_bytes_per_cycle_x10);
    p.next_free_tenths = start + duration;
    return divCeil(start + duration, 10) + noc_.request_latency;
}

Cycle
BankedL2::tagLookup(Slice &sl, Cycle arrive)
{
    if (cfg_.tag_cycles == 0)
        return arrive;
    Cycle look = std::max(arrive, sl.busy_until);
    sl.stats.tag_stall_cycles += look - arrive;
    sl.busy_until = look + cfg_.tag_cycles;
    return look;
}

Cycle
BankedL2::read(Cycle now, Addr block, u32 bytes, unsigned port)
{
    Slice &sl = slices_[sliceOf(block, block_bytes_,
                                cfg_.slices)];
    Dram &ch = channels_[channelOf(block, block_bytes_,
                                   cfg_.slices,
                                   u32(channels_.size()))];
    Cycle arrive = inject(now, bytes, port);
    Cycle look = tagLookup(sl, arrive);
    // Fills are installed lazily, at the next request that reaches
    // the slice: install time is indistinguishable from an eager
    // per-cycle install because tags are only ever consulted inside
    // these calls, and the sweep runs before the lookup below.
    // (Without MSHRs the file stays empty and this returns at once.)
    sl.mshrs.retire(look, sl.tags);

    if (sl.tags.access(block)) {
        ++sl.stats.hits;
        ++totals_.hits;
        return look + cfg_.hit_latency + noc_.response_latency;
    }
    ++sl.stats.misses;
    ++totals_.misses;

    if (cfg_.mshrs_per_slice == 0) {
        // Legacy approximation: the channel request leaves after
        // the L2 lookup and the tag installs immediately, standing
        // in for an MSHR merge (SharedL2's model, kept
        // arithmetically identical for the 1-slice/1-channel
        // equivalence).
        Cycle ready = ch.serve(look + cfg_.hit_latency, bytes);
        sl.tags.fill(block);
        return ready + noc_.response_latency;
    }

    // Real per-slice MSHRs: merge onto an outstanding fill, else
    // take a slot — waiting for the earliest one to free when the
    // file is full, exactly like the L1 MSHRs in MemorySystem.
    size_t pending = 0;
    if (const MshrFile::Miss *m = sl.mshrs.find(block, look, &pending)) {
        ++sl.stats.mshr_merges;
        return m->fill + noc_.response_latency;
    }
    Cycle start = look;
    if (pending >= cfg_.mshrs_per_slice) {
        ++sl.stats.mshr_stalls;
        start = sl.mshrs.kthPendingFill(look,
                                        pending - cfg_.mshrs_per_slice);
    }
    Cycle fill = ch.serve(start + cfg_.hit_latency, bytes);
    sl.mshrs.add(block, start, fill);
    return fill + noc_.response_latency;
}

void
BankedL2::write(Cycle now, Addr block, u32 bytes, unsigned port)
{
    Slice &sl = slices_[sliceOf(block, block_bytes_,
                                cfg_.slices)];
    Dram &ch = channels_[channelOf(block, block_bytes_,
                                   cfg_.slices,
                                   u32(channels_.size()))];
    Cycle arrive = inject(now, bytes, port);
    Cycle look = tagLookup(sl, arrive);
    sl.mshrs.retire(look, sl.tags);
    ++sl.stats.writes;
    ++totals_.writes;
    // Write-through no-allocate, like the L1s in front: the write
    // crosses the slice and consumes channel bandwidth.
    ch.serve(look + cfg_.hit_latency, bytes);
}

void
BankedL2::invalidate()
{
    for (Slice &sl : slices_) {
        sl.tags.invalidateAll();
        sl.mshrs.clear();
    }
}

unsigned
BankedL2::sliceMshrOccupancy(u32 s, Cycle now) const
{
    return slices_[s].mshrs.occupancy(now);
}

const DramStats &
BankedL2::dramStats() const
{
    dram_totals_ = DramStats{};
    for (const Dram &ch : channels_) {
        dram_totals_.transactions += ch.stats().transactions;
        dram_totals_.bytes += ch.stats().bytes;
        dram_totals_.stall_tenths += ch.stats().stall_tenths;
        dram_totals_.queue_full_stall_tenths +=
            ch.stats().queue_full_stall_tenths;
    }
    return dram_totals_;
}

} // namespace siwi::mem
