/**
 * @file
 * The persistent result cache: store/lookup round-trips exactly,
 * corruption of any blob byte is detected and served as a miss
 * (never as a wrong result), and concurrent stores and lookups of
 * one key, which take no lock, never fail or serve a torn blob.
 */

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/stats_io.hh"
#include "serve/cache_key.hh"
#include "serve/result_cache.hh"

using namespace siwi;
using namespace siwi::serve;

namespace fs = std::filesystem;

namespace {

class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("siwi_cache_test_" +
                std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** A distinct, fully-populated cell per @p n. */
    static runner::CellResult makeCell(unsigned n)
    {
        runner::CellResult c;
        c.sweep = "sweep" + std::to_string(n);
        c.machine = "M" + std::to_string(n);
        c.workload = "BFS";
        c.size = "tiny";
        c.num_sms = 1 + n % 4;
        c.policy = "oldest";
        c.verified = true;
        c.ipc = 1.25 + double(n);
        c.stats.cycles = 1000 + n;
        c.stats.instructions = 500 + n;
        return c;
    }

    /** 64-hex-digit pseudo key, distinct per @p n. */
    static std::string makeKey(unsigned n)
    {
        std::string k(64, 'a');
        std::string tail = std::to_string(n);
        k.replace(k.size() - tail.size(), tail.size(), tail);
        return k;
    }

    std::string path() const { return dir_.string(); }

    fs::path dir_;
};

} // namespace

TEST_F(ResultCacheTest, StoreLookupRoundTripIsExact)
{
    ResultCache cache;
    std::string err;
    ASSERT_TRUE(cache.open(path(), 0, &err)) << err;

    runner::CellResult in = makeCell(1);
    ASSERT_TRUE(cache.store(makeKey(1), in, &err)) << err;

    runner::CellResult out;
    ASSERT_TRUE(cache.lookup(makeKey(1), &out));
    EXPECT_EQ(in, out);
}

TEST_F(ResultCacheTest, AbsentKeyIsAMissNotAnError)
{
    ResultCache cache;
    std::string err;
    ASSERT_TRUE(cache.open(path(), 0, &err)) << err;
    runner::CellResult out;
    std::string why;
    EXPECT_FALSE(cache.lookup(makeKey(7), &out, &why));
    EXPECT_EQ(why, "absent");
}

TEST_F(ResultCacheTest, SurvivesReopen)
{
    std::string err;
    {
        ResultCache cache;
        ASSERT_TRUE(cache.open(path(), 0, &err)) << err;
        ASSERT_TRUE(cache.store(makeKey(1), makeCell(1), &err));
    }
    ResultCache cache;
    ASSERT_TRUE(cache.open(path(), 0, &err)) << err;
    runner::CellResult out;
    EXPECT_TRUE(cache.lookup(makeKey(1), &out));
    EXPECT_EQ(out, makeCell(1));
}

TEST_F(ResultCacheTest, EveryFlippedBitIsDetected)
{
    ResultCache cache;
    std::string err;
    ASSERT_TRUE(cache.open(path(), 0, &err)) << err;
    ASSERT_TRUE(cache.store(makeKey(1), makeCell(1), &err));

    const std::string obj = path() + "/objects/" +
                            makeKey(1).substr(0, 2) + "/" +
                            makeKey(1).substr(2) + ".json";
    std::string pristine;
    {
        std::ifstream in(obj, std::ios::binary);
        pristine.assign(std::istreambuf_iterator<char>(in), {});
        ASSERT_FALSE(pristine.empty());
    }

    // Flip one bit at a spread of positions across the blob —
    // header, key, checksum and payload regions all included.
    // Every single one must surface as a miss, never as a hit
    // with altered data.
    for (size_t pos = 0; pos < pristine.size();
         pos += 1 + pristine.size() / 64) {
        std::string bad = pristine;
        bad[pos] = char(bad[pos] ^ 0x08);
        {
            std::ofstream out(obj, std::ios::binary |
                                       std::ios::trunc);
            out.write(bad.data(), std::streamsize(bad.size()));
        }
        runner::CellResult out_cell;
        std::string why;
        bool hit = cache.lookup(makeKey(1), &out_cell, &why);
        if (hit) {
            // A flip inside JSON whitespace or a member name can
            // still parse to the identical value; a hit is only
            // acceptable when the payload is bit-exact.
            EXPECT_EQ(out_cell, makeCell(1))
                << "corrupt blob served at byte " << pos;
        }
    }

    {
        std::ofstream out(obj,
                          std::ios::binary | std::ios::trunc);
        out.write(pristine.data(),
                  std::streamsize(pristine.size()));
    }
    runner::CellResult out_cell;
    EXPECT_TRUE(cache.lookup(makeKey(1), &out_cell));
}

TEST_F(ResultCacheTest, StaleSchemaIsAMiss)
{
    ResultCache cache;
    std::string err;
    ASSERT_TRUE(cache.open(path(), 0, &err)) << err;
    ASSERT_TRUE(cache.store(makeKey(1), makeCell(1), &err));

    // Rewrite the blob claiming an older schema; the pin must
    // turn it into a miss even though the payload is intact.
    const std::string obj = path() + "/objects/" +
                            makeKey(1).substr(0, 2) + "/" +
                            makeKey(1).substr(2) + ".json";
    std::string perr;
    Json blob = Json::parseFile(obj, &perr);
    ASSERT_TRUE(perr.empty()) << perr;
    for (Json::Member &m : blob.obj()) {
        if (m.first == "schema_version")
            m.second = Json(core::stats_schema_version - 1);
    }
    ASSERT_TRUE(blob.writeFile(obj, 2, &err)) << err;

    runner::CellResult out;
    std::string why;
    EXPECT_FALSE(cache.lookup(makeKey(1), &out, &why));
    EXPECT_NE(why.find("stale stats schema"), std::string::npos)
        << why;
}

TEST_F(ResultCacheTest, NoStrayTempFilesAfterStores)
{
    ResultCache cache;
    std::string err;
    ASSERT_TRUE(cache.open(path(), 0, &err)) << err;
    for (unsigned n = 1; n <= 8; ++n)
        ASSERT_TRUE(cache.store(makeKey(n), makeCell(n), &err));
    for (const auto &e :
         fs::recursive_directory_iterator(path())) {
        if (e.is_regular_file()) {
            EXPECT_EQ(e.path().extension(), ".json")
                << "stray file: " << e.path();
        }
    }
}

TEST_F(ResultCacheTest, EntryBoundIsRejected)
{
    ResultCache cache;
    std::string err;
    EXPECT_FALSE(cache.open(path(), 3, &err));
    EXPECT_EQ(err, "the result cache has no entry bound");
    EXPECT_FALSE(fs::exists(path()));
}

TEST_F(ResultCacheTest, ConcurrentStoresAndLookupsOfOneKey)
{
    // Workers of one sweep may store the same key at once (two
    // sweeps naming the same cell) while others look it up. Each
    // store must succeed through its own temp file, and a reader
    // must see a whole blob or none.
    ResultCache cache;
    std::string err;
    ASSERT_TRUE(cache.open(path(), 0, &err)) << err;
    const std::string key = makeKey(1);
    const runner::CellResult cell = makeCell(1);
    std::atomic<unsigned> failed_stores{0};
    std::atomic<unsigned> bad_hits{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned round = 0; round < 50; ++round) {
                if (t % 2 == 0) {
                    std::string serr;
                    if (!cache.store(key, cell, &serr))
                        failed_stores.fetch_add(1);
                } else {
                    runner::CellResult out;
                    if (cache.lookup(key, &out) && out != cell)
                        bad_hits.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(failed_stores.load(), 0u);
    EXPECT_EQ(bad_hits.load(), 0u);
    runner::CellResult out;
    EXPECT_TRUE(cache.lookup(key, &out));
    EXPECT_EQ(out, cell);
    for (const auto &e :
         fs::recursive_directory_iterator(path())) {
        if (e.is_regular_file()) {
            EXPECT_EQ(e.path().extension(), ".json")
                << "stray file: " << e.path();
        }
    }
}
