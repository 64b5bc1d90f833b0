/**
 * @file
 * Persistent content-addressed result cache.
 *
 * One JSON blob per cell key (serve/cache_key.hh) at
 *
 *     <dir>/objects/<k[0:2]>/<k[2:]>.json
 *
 * The object files are the whole cache: there is no index, and a
 * ResultCache holds nothing but its directory. Blobs are written
 * atomically (temp file + rename within the objects directory), so
 * a killed writer leaves either the old blob or the new one, never
 * a torn file — that is what makes interrupted sweeps resumable.
 * Each blob carries the key it was stored under, the stats schema
 * version it was produced by, and a SHA-256 checksum of its
 * canonical cell payload; lookup re-validates all three, so a
 * corrupted (bit-flipped) or stale-schema blob is a miss that
 * triggers recomputation, never a served result.
 *
 * lookup() and store() take no lock. Threads and processes may
 * share one cache directory: a reader sees the old blob or the new
 * one, and every write goes through its own temp file.
 */

#ifndef SIWI_SERVE_RESULT_CACHE_HH
#define SIWI_SERVE_RESULT_CACHE_HH

#include <string>

#include "runner/results.hh"

namespace siwi::serve {

/** Version of the on-disk blob layout. */
constexpr int cache_blob_version = 1;

class ResultCache
{
  public:
    /**
     * Open (creating directories as needed) the cache at @p dir.
     * The cache has no entry bound, so @p max_entries must be 0.
     * @return false and set @p err when @p max_entries is not 0 or
     *         the directories cannot be created.
     */
    bool open(const std::string &dir, u64 max_entries,
              std::string *err);

    /**
     * Fetch the cell stored under @p key into @p out. Returns true
     * on a validated hit. On a miss returns false; @p why
     * (optional) distinguishes an absent entry from a corrupt or
     * schema-stale blob — both are misses, but the caller's log
     * should say why a recompute happened.
     */
    bool lookup(const std::string &key, runner::CellResult *out,
                std::string *why = nullptr) const;

    /**
     * Store @p cell under @p key (atomic write; overwrites any
     * existing blob, e.g. one that failed validation).
     * @return false and set @p err on an I/O failure.
     */
    bool store(const std::string &key, const runner::CellResult &cell,
               std::string *err) const;

  private:
    std::string objectPath(const std::string &key) const;

    std::string dir_;
};

} // namespace siwi::serve

#endif // SIWI_SERVE_RESULT_CACHE_HH
