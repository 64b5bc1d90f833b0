/**
 * @file
 * Content-addressed cell keys.
 *
 * A simulation cell is a pure function of its fully-resolved
 * description: the chip configuration (which embeds the SM config,
 * SM count and scheduling policy), the workload, and the size
 * class. Results are bit-identical across thread counts and
 * stepping modes, so that description — canonicalized to
 * deterministic JSON and hashed — is a sound exact cache key: two
 * cells with equal keys have byte-identical results, and any
 * config-field, workload, size, SM-count or policy change hashes
 * differently because every field flows through the ConfigField
 * tables into the canonical JSON (tests/serve/cache_key_test.cc
 * sweeps the tables to keep that honest).
 *
 * The stats schema version is folded in as well: a blob cached
 * under schema v5 must be a miss for a v6 reader, not a
 * mis-parsed hit, so schema bumps invalidate the whole cache by
 * construction. Execution knobs that cannot change results
 * (cycle skipping, thread count, progress) are deliberately NOT
 * part of the key.
 */

#ifndef SIWI_SERVE_CACHE_KEY_HH
#define SIWI_SERVE_CACHE_KEY_HH

#include <string>
#include <string_view>

#include "core/config_io.hh"
#include "core/stats_io.hh"
#include "runner/sweep.hh"

namespace siwi::serve {

/** Version of the key derivation itself: bump when the canonical
 *  key JSON layout changes (old caches then miss cleanly). */
constexpr int cache_key_version = 1;

/**
 * The canonical JSON text a cell key hashes, compact: key-
 * derivation version, stats schema version, workload, size label,
 * and the full resolved chip config dump. Exposed for tests.
 */
std::string cellKeyText(const core::GpuConfig &resolved,
                        std::string_view workload,
                        std::string_view size,
                        int schema_version = core::stats_schema_version);

/**
 * Content hash of one resolved cell: SHA-256 hex (64 chars) of
 * cellKeyText().
 */
std::string cellCacheKey(
    const core::GpuConfig &resolved, std::string_view workload,
    std::string_view size,
    int schema_version = core::stats_schema_version);

/**
 * Key of one cell of an expanded sweep (the runner-facing
 * overload): resolves the cell's chip exactly like runCell() does
 * and hashes it with the sweep's workload and size.
 */
std::string cellCacheKey(const runner::SweepSpec &sweep,
                         const runner::CellSpec &cell);

} // namespace siwi::serve

#endif // SIWI_SERVE_CACHE_KEY_HH
