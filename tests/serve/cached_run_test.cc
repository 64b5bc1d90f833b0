/**
 * @file
 * siwi-run --cache end to end: runSweepsCached() over a real
 * cache directory. A cold run computes every cell and matches a
 * plain runSweeps() byte for byte at any thread count, a warm run
 * is all hits, a fresh cache instance on the same directory (a
 * restarted run) recomputes nothing, a blob with a flipped
 * payload bit is recomputed rather than served, and a hit on a blob
 * another cell stored keeps the labels of the cell being run.
 */

#include <filesystem>
#include <fstream>
#include <memory>

#include <unistd.h>

#include <gtest/gtest.h>

#include "runner/experiment_runner.hh"
#include "runner/spec.hh"
#include "serve/cached_run.hh"

using namespace siwi;
using namespace siwi::serve;

namespace fs = std::filesystem;

namespace {

/** A 2-cell experiment: small enough for a unit test, two
 *  machines so hit/miss accounting is non-trivial. */
const char *kSpecText = R"({
    "name": "cached_run_test",
    "sweeps": [{
        "name": "cached_run_test",
        "machines": ["SBI", "SBI+SWI"],
        "workloads": ["BFS"],
        "size": "tiny"
    }]
})";

/**
 * Two sweeps whose cells resolve to one chip under two names: the
 * second cell hits the blob the first one stored.
 */
const char *kAliasSpecText = R"({
    "name": "cached_run_alias_test",
    "sweeps": [{
        "name": "a",
        "machines": ["SBI+SWI"],
        "workloads": ["BFS"],
        "size": "tiny"
    }, {
        "name": "b",
        "machines": [{"name": "Alias", "base": "SBI+SWI", "set": {}}],
        "workloads": ["BFS"],
        "size": "tiny"
    }]
})";

class CachedRunTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("siwi_cached_run_test_" +
                std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(dir_);
        loadSpec(kSpecText);
        opts_.jobs = 2;
    }

    /** Make the spec @p text the experiment. */
    void loadSpec(const char *text)
    {
        std::string err;
        Json spec = Json::parse(text, &err);
        ASSERT_TRUE(err.empty()) << err;
        runner::MachineRegistry reg;
        sweeps_.clear();
        ASSERT_TRUE(runner::sweepsFromSpecJson(
            spec, ".", &reg, &sweeps_, &opts_.suite_label, &err))
            << err;
    }

    void TearDown() override { fs::remove_all(dir_); }

    /** A cache instance on the test directory. */
    std::unique_ptr<ResultCache> openCache()
    {
        auto cache = std::make_unique<ResultCache>();
        std::string err;
        EXPECT_TRUE(cache->open(dir_.string(), 0, &err)) << err;
        return cache;
    }

    /** One cached run of the spec; JSON text of its results. */
    std::string cachedRun(ResultCache *cache,
                          CachedRunCounters *counters)
    {
        return runSweepsCached(sweeps_, opts_, cache, counters)
            .toJsonText();
    }

    fs::path dir_;
    std::vector<runner::SweepSpec> sweeps_;
    runner::RunOptions opts_;
};

} // namespace

TEST_F(CachedRunTest, ColdComputesWarmHitsByteIdentical)
{
    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        fs::remove_all(dir_);
        opts_.jobs = jobs;
        const std::string plain =
            runner::runSweeps(sweeps_, opts_).toJsonText();
        std::unique_ptr<ResultCache> cache = openCache();

        CachedRunCounters cold;
        EXPECT_EQ(cachedRun(cache.get(), &cold), plain);
        EXPECT_EQ(cold.hits, 0u);
        EXPECT_EQ(cold.misses, 2u);

        CachedRunCounters warm;
        EXPECT_EQ(cachedRun(cache.get(), &warm), plain);
        EXPECT_EQ(warm.hits, 2u);
        EXPECT_EQ(warm.misses, 0u);
    }
}

TEST_F(CachedRunTest, ResumeAfterRestartRecomputesNothing)
{
    CachedRunCounters cold;
    const std::string first = cachedRun(openCache().get(), &cold);
    EXPECT_EQ(cold.misses, 2u);

    // A fresh instance on the same directory is what a restarted
    // (or killed and rerun) siwi-run --cache sees: finished cells
    // must come back as hits.
    CachedRunCounters resumed;
    EXPECT_EQ(cachedRun(openCache().get(), &resumed), first);
    EXPECT_EQ(resumed.hits, 2u);
    EXPECT_EQ(resumed.misses, 0u);
}

TEST_F(CachedRunTest, PoisonedBlobIsRecomputedNotServed)
{
    std::unique_ptr<ResultCache> cache = openCache();
    CachedRunCounters cold;
    const std::string first = cachedRun(cache.get(), &cold);

    // Flip one payload bit in one stored blob.
    std::string victim;
    for (const auto &e : fs::recursive_directory_iterator(
             dir_ / "objects")) {
        if (e.is_regular_file()) {
            victim = e.path().string();
            break;
        }
    }
    ASSERT_FALSE(victim.empty());
    std::string data;
    {
        std::ifstream in(victim, std::ios::binary);
        data.assign(std::istreambuf_iterator<char>(in), {});
    }
    size_t pos = data.find("\"ipc\"");
    ASSERT_NE(pos, std::string::npos);
    data[pos + 7] = char(data[pos + 7] ^ 0x01);
    {
        std::ofstream out(victim,
                          std::ios::binary | std::ios::trunc);
        out.write(data.data(), std::streamsize(data.size()));
    }

    CachedRunCounters again;
    EXPECT_EQ(cachedRun(cache.get(), &again), first)
        << "recomputed cell differs from the original";
    EXPECT_EQ(again.hits, 1u);
    EXPECT_EQ(again.misses, 1u) << "poisoned blob not detected";
}

TEST_F(CachedRunTest, AliasedCellsKeepTheirOwnLabels)
{
    loadSpec(kAliasSpecText);
    opts_.jobs = 1;
    const runner::Results plain = runner::runSweeps(sweeps_, opts_);
    ASSERT_EQ(plain.cells.size(), 2u);
    EXPECT_EQ(plain.cells[1].sweep, "b");
    EXPECT_EQ(plain.cells[1].machine, "Alias");

    std::unique_ptr<ResultCache> cache = openCache();
    CachedRunCounters cold;
    EXPECT_EQ(cachedRun(cache.get(), &cold), plain.toJsonText());
    EXPECT_EQ(cold.hits, 1u); // "b" hit the blob "a" stored
    EXPECT_EQ(cold.misses, 1u);

    CachedRunCounters warm;
    EXPECT_EQ(cachedRun(cache.get(), &warm), plain.toJsonText());
    EXPECT_EQ(warm.hits, 2u);
}
