#include "serve/cached_run.hh"

#include <atomic>
#include <cstdio>

#include "serve/cache_key.hh"

namespace siwi::serve {

runner::Results
runSweepsCached(const std::vector<runner::SweepSpec> &sweeps,
                const runner::RunOptions &opts, ResultCache *cache,
                CachedRunCounters *counters)
{
    std::atomic<u64> hits{0};
    std::atomic<u64> misses{0};
    runner::Results out = runner::runSweeps(
        sweeps, opts,
        [&](const runner::SweepSpec &sweep,
            const runner::CellSpec &cs, bool *cached) {
            const std::string key = cellCacheKey(sweep, cs);
            runner::CellResult c;
            if (cache->lookup(key, &c)) {
                // The blob's measurement, this cell's labels.
                runner::labelCell(sweep, cs.machine, cs.wl, cs.sms,
                                  cs.policy, &c);
                hits.fetch_add(1);
                *cached = true;
                return c;
            }
            misses.fetch_add(1);
            c = runner::runCell(sweep, cs.machine, cs.wl, cs.sms,
                                cs.policy, opts.cycle_skip);
            std::string err;
            if (!cache->store(key, c, &err))
                std::fprintf(stderr, "siwi-run: %s\n", err.c_str());
            return c;
        });
    if (counters) {
        counters->hits = hits.load();
        counters->misses = misses.load();
    }
    return out;
}

} // namespace siwi::serve
