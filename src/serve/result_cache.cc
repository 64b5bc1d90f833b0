#include "serve/result_cache.hh"

#include <atomic>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "common/sha256.hh"
#include "core/stats_io.hh"

namespace fs = std::filesystem;

namespace siwi::serve {

namespace {

/**
 * Write @p text to @p path atomically: temp file in the same
 * directory (rename is only atomic within a filesystem), fflush +
 * fclose checked, then rename over the target. The temp name
 * carries the pid and a process-wide write count, so no two
 * writers — processes sharing a cache directory, or threads of one
 * process storing the same key — ever share a temp file.
 */
bool
writeFileAtomic(const std::string &path, const std::string &text,
                std::string *err)
{
    static std::atomic<u64> writes{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + "." +
                            std::to_string(writes.fetch_add(1));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        if (err)
            *err = "cannot write " + tmp;
        return false;
    }
    size_t written = std::fwrite(text.data(), 1, text.size(), f);
    bool ok = written == text.size() && std::fclose(f) == 0;
    if (!ok) {
        if (f && written != text.size())
            std::fclose(f);
        std::remove(tmp.c_str());
        if (err)
            *err = "write error on " + tmp;
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        if (err)
            *err = "cannot rename " + tmp + " -> " + path;
        return false;
    }
    return true;
}

/** The blob text stored under @p key for @p cell. */
std::string
blobText(const std::string &key, const runner::CellResult &cell)
{
    // The checksum covers the compact canonical text of the cell
    // payload, which is the compact dump of the parsed payload:
    // any bit flip that changes the parsed value fails validation,
    // and re-serialization is deterministic, so a round-trip
    // through the blob cannot drift the checksum.
    const std::string sum = sha256Hex(jsonText(cell));
    std::string text;
    JsonWriter w(text, 2);
    w.beginObject();
    w.key("siwi_cache_blob").value(cache_blob_version);
    w.key("key").value(key);
    w.key("schema_version").value(core::stats_schema_version);
    w.key("cell_sha256").value(sum);
    w.key("cell");
    runner::writeJson(w, cell);
    w.endObject();
    text += '\n';
    return text;
}

/**
 * The inverse of blobText(): check the layout version, the key, the
 * schema version and the payload checksum of @p blob, then parse
 * its cell into @p out. On failure @p why says which check failed.
 */
bool
validateBlob(const Json &blob, const std::string &key,
             runner::CellResult *out, std::string *why)
{
    if (!blob.isObject() ||
        blob.getInt("siwi_cache_blob", -1) != cache_blob_version) {
        *why = "not a v" + std::to_string(cache_blob_version) +
               " cache blob";
        return false;
    }
    if (blob.getString("key") != key) {
        *why = "key mismatch (blob stored under '" +
               blob.getString("key") + "')";
        return false;
    }
    i64 schema = blob.getInt("schema_version", -1);
    if (schema != core::stats_schema_version) {
        *why = "stale stats schema v" + std::to_string(schema) +
               " (current v" +
               std::to_string(core::stats_schema_version) + ")";
        return false;
    }
    const Json *cell = blob.find("cell");
    if (!cell) {
        *why = "blob lacks 'cell' payload";
        return false;
    }
    std::string sum = sha256Hex(cell->dump(-1));
    if (sum != blob.getString("cell_sha256")) {
        *why = "payload checksum mismatch (corrupt blob)";
        return false;
    }
    std::string perr;
    if (!runner::cellFromJson(*cell, out, &perr)) {
        *why = "payload unparseable: " + perr;
        return false;
    }
    return true;
}

} // namespace

std::string
ResultCache::objectPath(const std::string &key) const
{
    // Git-style fan-out: 256 subdirectories keep any single
    // directory small even for huge grids.
    return dir_ + "/objects/" + key.substr(0, 2) + "/" +
           key.substr(2) + ".json";
}

bool
ResultCache::open(const std::string &dir, u64 max_entries,
                  std::string *err)
{
    if (max_entries != 0) {
        if (err)
            *err = "the result cache has no entry bound";
        return false;
    }
    dir_ = dir;
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / "objects", ec);
    if (ec) {
        if (err)
            *err = "cannot create cache directory " + dir_ + ": " +
                   ec.message();
        return false;
    }
    return true;
}

bool
ResultCache::lookup(const std::string &key, runner::CellResult *out,
                    std::string *why) const
{
    const std::string path = objectPath(key);
    std::string perr;
    Json blob = Json::parseFile(path, &perr);
    if (!perr.empty()) {
        // Absent, or present but unreadable/unparseable: corruption.
        std::error_code ec;
        if (why)
            *why = fs::exists(path, ec) ? perr : "absent";
        return false;
    }
    std::string vwhy;
    if (!validateBlob(blob, key, out, &vwhy)) {
        if (why)
            *why = vwhy;
        return false;
    }
    return true;
}

bool
ResultCache::store(const std::string &key,
                   const runner::CellResult &cell,
                   std::string *err) const
{
    const std::string path = objectPath(key);
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    if (ec) {
        if (err)
            *err = "cannot create " + path + ": " + ec.message();
        return false;
    }
    return writeFileAtomic(path, blobText(key, cell), err);
}

} // namespace siwi::serve
