/**
 * @file
 * The flat MSHR files against block-keyed map references.
 *
 * MemorySystem (the L1's file) and BankedL2 (one file per slice)
 * keep their in-flight misses in an unordered array. The reference
 * models below are the same timing glue written over std::map, as
 * both files were before: merges find the block, a full file makes
 * a miss wait for the earliest free slot, and due fills install in
 * map (ascending block) order. Seeded random sequences with small
 * caches and tight files — merges, full files, queued starts, fills
 * completing out of block order and retiring in batches — must
 * return the same cycles, statistics and occupancies call for call.
 * A final probe sweep compares the hit/miss pattern, which pins the
 * order the due fills were installed in (it decides the caches'
 * replacement state).
 */

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.hh"
#include "common/rng.hh"
#include "mem/banked_l2.hh"
#include "mem/memory_system.hh"

namespace siwi::mem {
namespace {

constexpr u32 blk = 128;

/** One in-flight miss of a reference file: [start, fill). */
struct MapMiss
{
    Cycle start = 0;
    Cycle fill = 0;
};

using MapFile = std::map<Addr, MapMiss>;

/**
 * Install every fill due at @p now, in map (block) order.
 * @return the number installed
 */
unsigned
retireMap(MapFile &file, Cycle now, L1Cache &cache)
{
    unsigned n = 0;
    for (auto it = file.begin(); it != file.end();) {
        if (it->second.fill <= now) {
            cache.fill(it->first);
            it = file.erase(it);
            ++n;
        } else {
            ++it;
        }
    }
    return n;
}

/**
 * Start of a new miss at @p now into @p file with @p slots slots:
 * now, or — when every slot is busy — the cycle the
 * (pending - slots + 1)-th pending fill completes.
 * @p stalled is set when the miss had to wait.
 */
Cycle
mapStart(const MapFile &file, Cycle now, unsigned slots, bool *stalled)
{
    std::vector<Cycle> pending;
    for (const auto &[block, m] : file) {
        if (m.fill > now)
            pending.push_back(m.fill);
    }
    *stalled = pending.size() >= slots;
    if (!*stalled)
        return now;
    std::sort(pending.begin(), pending.end());
    return pending[pending.size() - slots];
}

unsigned
mapOccupancy(const MapFile &file, Cycle now)
{
    unsigned busy = 0;
    for (const auto &[block, m] : file)
        busy += m.start <= now && now < m.fill;
    return busy;
}

/** MemorySystem over a map MSHR file (the reference). */
class MapMemorySystem
{
  public:
    MapMemorySystem(const MemConfig &cfg, MemoryBackend &backend)
        : cfg_(cfg), l1_(cfg.l1), backend_(backend),
          wbuf_(cfg.write_buffer_entries)
    {
    }

    /** @return the number of fills installed */
    unsigned tick(Cycle now) { return retireMap(inflight_, now, l1_); }

    Cycle
    nextWake(Cycle now) const
    {
        Cycle next = no_wake;
        for (const auto &[block, m] : inflight_)
            next = std::min(next, m.fill);
        return std::max(next, now);
    }

    unsigned
    mshrOccupancy(Cycle now) const
    {
        return mapOccupancy(inflight_, now);
    }

    Cycle
    load(Cycle now, Addr block)
    {
        const u32 hit = l1_.config().hit_latency;
        ++stats.load_transactions;
        if (l1_.access(block))
            return now + hit;
        for (const Entry &e : wbuf_) {
            if (e.valid && e.block == block) {
                ++stats.write_forwards;
                return now + hit;
            }
        }
        auto it = inflight_.find(block);
        if (it != inflight_.end()) {
            ++stats.mshr_merges;
            return it->second.fill + hit;
        }
        bool stalled = false;
        Cycle start = mapStart(inflight_, now, cfg_.mshrs, &stalled);
        stats.mshr_stalls += stalled;
        Cycle fill = backend_.read(start, block, blk, 0);
        inflight_[block] = {start, fill};
        return fill + hit;
    }

    Cycle
    store(Cycle now, Addr block, u32 bytes)
    {
        ++stats.store_transactions;
        if (wbuf_.empty()) {
            backend_.write(now, block, bytes, 0);
            return now + 1;
        }
        for (Entry &e : wbuf_) {
            if (e.valid && e.block == block) {
                e.bytes = std::min(blk, e.bytes + bytes);
                e.last_use = ++use_;
                ++stats.write_combines;
                return now + 1;
            }
        }
        Entry *victim = &wbuf_[0];
        for (Entry &e : wbuf_) {
            if (!e.valid) {
                victim = &e;
                break;
            }
            if (e.last_use < victim->last_use)
                victim = &e;
        }
        if (victim->valid)
            backend_.write(now, victim->block, victim->bytes, 0);
        *victim = {true, block, bytes, ++use_};
        return now + 1;
    }

    const CacheStats &cacheStats() const { return l1_.stats(); }

    MemStats stats;

  private:
    struct Entry
    {
        bool valid = false;
        Addr block = 0;
        u32 bytes = 0;
        u64 last_use = 0;
    };

    MemConfig cfg_;
    L1Cache l1_;
    MemoryBackend &backend_;
    MapFile inflight_;
    std::vector<Entry> wbuf_;
    u64 use_ = 0;
};

void
expectSameStats(const MemorySystem &flat, const MapMemorySystem &ref,
                int round)
{
    const MemStats &a = flat.stats(), &b = ref.stats;
    EXPECT_EQ(a.load_transactions, b.load_transactions) << round;
    EXPECT_EQ(a.store_transactions, b.store_transactions) << round;
    EXPECT_EQ(a.write_combines, b.write_combines) << round;
    EXPECT_EQ(a.write_forwards, b.write_forwards) << round;
    EXPECT_EQ(a.mshr_merges, b.mshr_merges) << round;
    EXPECT_EQ(a.mshr_stalls, b.mshr_stalls) << round;
    EXPECT_EQ(flat.cacheStats().hits, ref.cacheStats().hits) << round;
    EXPECT_EQ(flat.cacheStats().misses, ref.cacheStats().misses)
        << round;
    EXPECT_EQ(flat.cacheStats().evictions, ref.cacheStats().evictions)
        << round;
}

TEST(MemorySystem, FlatMshrMatchesMapReference)
{
    Rng rng(2718);
    u64 merges = 0, stalls = 0, evictions = 0, batch_ticks = 0;
    for (int round = 0; round < 60; ++round) {
        MemConfig cfg;
        const u32 sets = 1u << rng.below(3);
        cfg.l1.ways = 1 + u32(rng.below(3));
        cfg.l1.size_bytes = sets * cfg.l1.ways * blk;
        cfg.l1.hit_latency = 1 + u32(rng.below(4));
        cfg.mshrs = 1 + u32(rng.below(6));
        cfg.write_buffer_entries = u32(rng.below(4));
        DramConfig dram;
        dram.latency_cycles = 5 + u32(rng.below(200));
        dram.bytes_per_cycle_x10 = 20 + u32(rng.below(400));
        DramBackend flat_dram(dram), ref_dram(dram);
        MemorySystem flat(cfg, flat_dram);
        MapMemorySystem ref(cfg, ref_dram);

        // Twice as many blocks as the cache holds, in random order,
        // so fills complete out of block order and evict each other.
        const u64 pool = 2 * u64(sets) * cfg.l1.ways + 2;
        Cycle now = 0;
        for (int op = 0; op < 800; ++op) {
            const Addr block = Addr(rng.below(pool)) * blk;
            const Cycle at = now + rng.below(4);
            switch (rng.below(8)) {
              case 0: {
                // Sparse ticks: several fills come due at once.
                now += rng.below(4) == 0 ? rng.below(400)
                                         : rng.below(3);
                flat.tick(now);
                batch_ticks += ref.tick(now) >= 2;
                ASSERT_EQ(flat.nextWake(now), ref.nextWake(now))
                    << "round " << round << " op " << op;
                break;
              }
              case 1:
              case 2: {
                const u32 bytes = 4u << rng.below(6);
                ASSERT_EQ(flat.store(at, block, bytes),
                          ref.store(at, block, bytes))
                    << "round " << round << " op " << op;
                break;
              }
              default:
                ASSERT_EQ(flat.load(at, block), ref.load(at, block))
                    << "round " << round << " op " << op;
                const Cycle probe = at + rng.below(300);
                ASSERT_EQ(flat.mshrOccupancy(probe),
                          ref.mshrOccupancy(probe))
                    << "round " << round << " op " << op;
                ASSERT_LE(flat.mshrOccupancy(probe), cfg.mshrs);
                break;
            }
        }
        expectSameStats(flat, ref, round);

        // Retire everything, then probe every block once: a hit
        // returns after the hit latency, a miss goes to DRAM.
        now += 100000;
        flat.tick(now);
        ref.tick(now);
        for (u64 b = 0; b < pool; ++b) {
            ASSERT_EQ(flat.load(now, Addr(b) * blk),
                      ref.load(now, Addr(b) * blk))
                << "round " << round << " probe block " << b;
        }
        expectSameStats(flat, ref, round);
        EXPECT_EQ(flat_dram.dramStats(), ref_dram.dramStats());
        merges += ref.stats.mshr_merges;
        stalls += ref.stats.mshr_stalls;
        evictions += ref.cacheStats().evictions;
    }
    // The sequences reach every path they are meant to.
    EXPECT_GT(merges, 1000u);
    EXPECT_GT(stalls, 1000u);
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(batch_ticks, 500u); // ticks installing 2+ fills
}

/** BankedL2 over map MSHR files (the reference). */
class MapBankedL2
{
  public:
    MapBankedL2(const L2Config &cfg, const DramConfig &dram,
                const NocConfig &noc, unsigned ports)
        : cfg_(cfg), noc_(noc), ports_(ports)
    {
        CacheConfig tags;
        tags.size_bytes = cfg.size_bytes / cfg.slices;
        tags.ways = cfg.ways;
        tags.block_bytes = blk;
        tags.hit_latency = cfg.hit_latency;
        for (u32 s = 0; s < cfg.slices; ++s)
            slices_.push_back({L1Cache(tags), 0, {}, {}});
        for (u32 c = 0; c < dram.channels; ++c)
            channels_.emplace_back(dram);
    }

    Cycle
    read(Cycle now, Addr block, u32 bytes, unsigned port)
    {
        Slice &sl = slice(block);
        Dram &ch = channel(block);
        Cycle look = lookup(sl, inject(now, bytes, port));
        if (sl.tags.access(block)) {
            ++sl.stats.hits;
            return look + cfg_.hit_latency + noc_.response_latency;
        }
        ++sl.stats.misses;
        if (cfg_.mshrs_per_slice == 0) {
            Cycle ready = ch.serve(look + cfg_.hit_latency, bytes);
            sl.tags.fill(block);
            return ready + noc_.response_latency;
        }
        auto it = sl.inflight.find(block);
        if (it != sl.inflight.end()) {
            ++sl.stats.mshr_merges;
            return it->second.fill + noc_.response_latency;
        }
        bool stalled = false;
        Cycle start =
            mapStart(sl.inflight, look, cfg_.mshrs_per_slice, &stalled);
        sl.stats.mshr_stalls += stalled;
        Cycle fill = ch.serve(start + cfg_.hit_latency, bytes);
        sl.inflight[block] = {start, fill};
        return fill + noc_.response_latency;
    }

    void
    write(Cycle now, Addr block, u32 bytes, unsigned port)
    {
        Slice &sl = slice(block);
        Cycle look = lookup(sl, inject(now, bytes, port));
        ++sl.stats.writes;
        channel(block).serve(look + cfg_.hit_latency, bytes);
    }

    const L2SliceStats &sliceStats(u32 s) const
    {
        return slices_[s].stats;
    }
    unsigned sliceMshrOccupancy(u32 s, Cycle now) const
    {
        return mapOccupancy(slices_[s].inflight, now);
    }
    const DramStats &channelStats(u32 c) const
    {
        return channels_[c].stats();
    }
    const NocPortStats &portStats(unsigned p) const
    {
        return ports_[p].stats;
    }

  private:
    struct Slice
    {
        L1Cache tags;
        Cycle busy_until;
        MapFile inflight;
        L2SliceStats stats;
    };
    struct Port
    {
        u64 next_free_tenths = 0;
        NocPortStats stats;
    };

    Slice &
    slice(Addr block)
    {
        return slices_[BankedL2::sliceOf(block, blk, cfg_.slices)];
    }
    Dram &
    channel(Addr block)
    {
        return channels_[BankedL2::channelOf(
            block, blk, cfg_.slices, u32(channels_.size()))];
    }

    Cycle
    inject(Cycle now, u32 bytes, unsigned port)
    {
        Port &p = ports_[port];
        ++p.stats.requests;
        p.stats.bytes += bytes;
        if (noc_.port_bytes_per_cycle_x10 == 0)
            return now + noc_.request_latency;
        u64 start = std::max(now * 10, p.next_free_tenths);
        p.stats.stall_tenths += start - now * 10;
        p.next_free_tenths =
            start +
            divCeil(u64(bytes) * 100, noc_.port_bytes_per_cycle_x10);
        return divCeil(p.next_free_tenths, 10) + noc_.request_latency;
    }

    /** Tag-pipeline leg, then the lazy install of due fills. */
    Cycle
    lookup(Slice &sl, Cycle arrive)
    {
        Cycle look = arrive;
        if (cfg_.tag_cycles > 0) {
            look = std::max(arrive, sl.busy_until);
            sl.stats.tag_stall_cycles += look - arrive;
            sl.busy_until = look + cfg_.tag_cycles;
        }
        retireMap(sl.inflight, look, sl.tags);
        return look;
    }

    L2Config cfg_;
    NocConfig noc_;
    std::vector<Slice> slices_;
    std::vector<Dram> channels_;
    std::vector<Port> ports_;
};

void
expectSameStats(const BankedL2 &flat, const MapBankedL2 &ref,
                int round)
{
    for (u32 s = 0; s < flat.numSlices(); ++s)
        EXPECT_EQ(flat.sliceStats(s), ref.sliceStats(s))
            << "round " << round << " slice " << s;
    for (u32 c = 0; c < flat.numChannels(); ++c)
        EXPECT_EQ(flat.channelStats(c), ref.channelStats(c))
            << "round " << round << " channel " << c;
    for (unsigned p = 0; p < flat.numPorts(); ++p)
        EXPECT_EQ(flat.portStats(p), ref.portStats(p))
            << "round " << round << " port " << p;
}

TEST(BankedL2, FlatMshrMatchesMapReference)
{
    Rng rng(31415);
    u64 merges = 0, stalls = 0, hits = 0;
    for (int round = 0; round < 60; ++round) {
        L2Config l2;
        l2.slices = 1u << rng.below(3);
        l2.ways = 1 + u32(rng.below(3));
        const u32 sets = 1u << rng.below(2);
        l2.size_bytes = l2.slices * sets * l2.ways * blk;
        l2.hit_latency = 1 + u32(rng.below(30));
        l2.mshrs_per_slice = u32(rng.below(5)); // 0: legacy install
        l2.tag_cycles = u32(rng.below(3));
        DramConfig dram;
        dram.latency_cycles = 5 + u32(rng.below(200));
        dram.bytes_per_cycle_x10 = 20 + u32(rng.below(400));
        dram.channels = 1u << rng.below(2);
        dram.queue_depth = u32(rng.below(3));
        NocConfig noc;
        noc.request_latency = u32(rng.below(10));
        noc.response_latency = u32(rng.below(10));
        noc.port_bytes_per_cycle_x10 =
            rng.below(2) ? 0 : 200 + u32(rng.below(800));
        const unsigned ports = 1 + unsigned(rng.below(4));
        BankedL2 flat(l2, blk, dram, noc, ports);
        MapBankedL2 ref(l2, dram, noc, ports);

        const u64 pool = 2 * u64(l2.slices) * sets * l2.ways + 3;
        Cycle now = 0;
        for (int op = 0; op < 800; ++op) {
            // Requests reach the backend slightly out of time order
            // (queued L1 misses carry a later start time).
            now += rng.below(4) == 0 ? rng.below(200) : rng.below(3);
            const Cycle at = now + rng.below(40);
            const Addr block = Addr(rng.below(pool)) * blk;
            const unsigned port = unsigned(rng.below(ports));
            const u32 bytes = blk >> rng.below(2);
            if (rng.below(4) == 0) {
                flat.write(at, block, bytes, port);
                ref.write(at, block, bytes, port);
            } else {
                ASSERT_EQ(flat.read(at, block, bytes, port),
                          ref.read(at, block, bytes, port))
                    << "round " << round << " op " << op;
            }
            const Cycle probe = at + rng.below(300);
            for (u32 s = 0; s < l2.slices; ++s) {
                ASSERT_EQ(flat.sliceMshrOccupancy(s, probe),
                          ref.sliceMshrOccupancy(s, probe))
                    << "round " << round << " op " << op;
            }
        }
        expectSameStats(flat, ref, round);

        // Every fill has completed by now; the first request to a
        // slice installs its due fills, then every block is probed.
        now += 100000;
        for (u64 b = 0; b < pool; ++b) {
            ASSERT_EQ(flat.read(now, Addr(b) * blk, blk, 0),
                      ref.read(now, Addr(b) * blk, blk, 0))
                << "round " << round << " probe block " << b;
        }
        expectSameStats(flat, ref, round);
        for (u32 s = 0; s < l2.slices; ++s) {
            merges += ref.sliceStats(s).mshr_merges;
            stalls += ref.sliceStats(s).mshr_stalls;
            hits += ref.sliceStats(s).hits;
        }
    }
    EXPECT_GT(merges, 1000u);
    EXPECT_GT(stalls, 1000u);
    EXPECT_GT(hits, 1000u);
}

} // namespace
} // namespace siwi::mem
