/**
 * @file
 * Cache-backed sweep execution: `siwi-run --cache DIR`.
 *
 * runner::runSweeps() with a per-cell step that consults the
 * blob store (serve/result_cache.hh) under the cell's content key
 * (serve/cache_key.hh): every cell is looked up before it is run,
 * and every computed cell is stored. Runs pointed at the same
 * directory therefore share results.
 *
 * Because cells are bit-identical functions of their resolved
 * configuration, a cache hit is exact. A hit keeps the blob's
 * measurement and takes its labels from the cell being run
 * (runner::labelCell), since the key leaves out the sweep and
 * machine names. The returned Results — and its serialized JSON —
 * are byte-identical whether every cell was computed, cached, or
 * any mix of the two.
 */

#ifndef SIWI_SERVE_CACHED_RUN_HH
#define SIWI_SERVE_CACHED_RUN_HH

#include <vector>

#include "runner/experiment_runner.hh"
#include "serve/result_cache.hh"

namespace siwi::serve {

/** Cache traffic of one runSweepsCached() invocation. */
struct CachedRunCounters
{
    u64 hits = 0;
    u64 misses = 0; //!< computed this run (and stored)
};

/**
 * runner::runSweeps() with a read-through / write-through result
 * cache: the same worker pool, dispatch order (heaviest first),
 * grid normalization, RunOptions semantics and return value, in
 * canonical cell order. @p counters (optional) reports the
 * hit/miss split.
 */
runner::Results runSweepsCached(
    const std::vector<runner::SweepSpec> &sweeps,
    const runner::RunOptions &opts, ResultCache *cache,
    CachedRunCounters *counters = nullptr);

} // namespace siwi::serve

#endif // SIWI_SERVE_CACHED_RUN_HH
