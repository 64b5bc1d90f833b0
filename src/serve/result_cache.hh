/**
 * @file
 * Persistent content-addressed result cache.
 *
 * One JSON blob per cell key (serve/cache_key.hh) under
 *
 *     <dir>/objects/<k[0:2]>/<k[2:]>.json
 *     <dir>/index.json
 *
 * Blobs are written atomically (temp file + rename within the
 * objects directory), so a killed writer leaves either the old
 * blob or the new one, never a torn file — that is what makes
 * interrupted sweeps resumable. Each blob carries the key it was
 * stored under, the stats schema version it was produced by, and
 * a SHA-256 checksum of its canonical cell payload; lookup
 * re-validates all three, so a corrupted (bit-flipped) or
 * stale-schema blob is a miss that triggers recomputation, never
 * a served result. The object files are the ground truth; the
 * index is derived metadata (insertion order for eviction, entry
 * count) and is rebuilt by fsck() when it drifts — e.g. when
 * several processes share one cache directory.
 */

#ifndef SIWI_SERVE_RESULT_CACHE_HH
#define SIWI_SERVE_RESULT_CACHE_HH

#include <mutex>
#include <string>
#include <vector>

#include "runner/results.hh"

namespace siwi::serve {

/** Version of the on-disk blob/index layout. */
constexpr int cache_blob_version = 1;

/** Lifetime operation counters of one ResultCache instance. */
struct CacheCounters
{
    u64 hits = 0;
    u64 misses = 0;    //!< absent entries
    u64 corrupt = 0;   //!< present but failed validation (miss)
    u64 stores = 0;
    u64 evictions = 0;
};

/** Outcome of one fsck() pass. */
struct FsckReport
{
    size_t scanned = 0;  //!< object files visited
    size_t valid = 0;
    size_t corrupt = 0;  //!< failed validation
    size_t removed = 0;  //!< corrupt blobs deleted (repair mode)
    bool index_rebuilt = false;
    std::vector<std::string> problems; //!< one line per finding

    bool clean() const { return corrupt == 0; }
};

class ResultCache
{
  public:
    /**
     * Open (creating directories as needed) the cache at @p dir.
     * A missing or malformed index is tolerated — entries stay
     * reachable by key; fsck() rebuilds the metadata.
     * @p max_entries > 0 bounds the cache: store() evicts
     * oldest-stored entries beyond it.
     * @return false and set @p err when the directories cannot
     *         be created.
     */
    bool open(const std::string &dir, u64 max_entries,
              std::string *err);

    /**
     * Fetch the cell stored under @p key. Returns true on a
     * validated hit. On a miss returns false; @p why (optional)
     * distinguishes an absent entry from a corrupt or
     * schema-stale blob — both are misses, but the caller's log
     * should say why a recompute happened.
     */
    bool lookup(const std::string &key, runner::CellResult *out,
                std::string *why = nullptr);

    /**
     * Store @p cell under @p key (atomic write; overwrites any
     * existing blob, e.g. one that failed validation). Evicts
     * oldest entries beyond the entry bound.
     * @return false and set @p err on an I/O failure.
     */
    bool store(const std::string &key,
               const runner::CellResult &cell, std::string *err);

    /**
     * Validate every object blob against its path-derived key,
     * schema version and payload checksum, and check the index
     * for drift. With @p repair, corrupt blobs are deleted and
     * the index rebuilt from the valid objects (sorted by key);
     * otherwise problems are only reported.
     */
    FsckReport fsck(bool repair);

    /** Entries currently in the index. */
    u64 entries() const;

    /** Lifetime counters of this instance. */
    CacheCounters counters() const;

    const std::string &dir() const { return dir_; }

  private:
    struct IndexEntry
    {
        std::string key;
        u64 seq = 0;
    };

    std::string objectPath(const std::string &key) const;
    bool writeIndexLocked(std::string *err);
    bool validateBlob(const Json &blob, const std::string &key,
                      runner::CellResult *out,
                      std::string *why) const;

    mutable std::mutex mu_;
    std::string dir_;
    u64 max_entries_ = 0;
    u64 next_seq_ = 1;
    std::vector<IndexEntry> index_; //!< seq-ascending
    CacheCounters counters_;
};

} // namespace siwi::serve

#endif // SIWI_SERVE_RESULT_CACHE_HH
