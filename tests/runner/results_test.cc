/**
 * @file
 * Tests for Results serialization (JSON round-trip, schema
 * versioning) and the baseline comparison gate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/stats_io.hh"
#include "runner/baseline.hh"
#include "runner/results.hh"

using namespace siwi;
using namespace siwi::runner;

namespace {

core::SimStats
sampleStats(u64 seed)
{
    core::SimStats st;
    st.cycles = 1000 + seed;
    st.instructions = 2000 + seed;
    st.thread_instructions = 64000 + seed;
    st.primary_issues = 1500 + seed;
    st.secondary_issues = 500 + seed;
    st.branch_divergences = 17 + seed;
    st.warp_splits = 5 + seed;
    st.l1_hits = 900 + seed;
    st.l1_misses = 100 + seed;
    st.dram_transactions = 42 + seed;
    st.dram_bytes = 42 * 128 + seed;
    st.threads_launched = 1024;
    st.blocks_launched = 4;
    st.max_stack_depth = 3;
    st.max_live_contexts = 9;
    st.units.push_back({"MAD0", 10 + seed, 20 + seed, 30 + seed});
    st.units.push_back({"LSU", 1 + seed, 2 + seed, 3 + seed});
    return st;
}

CellResult
sampleCell(const std::string &sweep, const std::string &machine,
           const std::string &workload, double ipc)
{
    CellResult c;
    c.sweep = sweep;
    c.machine = machine;
    c.workload = workload;
    c.size = "tiny";
    c.policy = "oldest";
    c.verified = true;
    c.ipc = ipc;
    c.stats = sampleStats(u64(ipc * 10));
    return c;
}

Results
sampleResults()
{
    Results r;
    r.suite = "fast";
    r.cells.push_back(sampleCell("fig7", "Baseline", "BFS", 20.5));
    r.cells.push_back(sampleCell("fig7", "SBI", "BFS", 28.25));
    CellResult bad = sampleCell("fig7", "SBI", "LUD", 10.0);
    bad.verified = false;
    bad.verify_msg = "mismatch at word 3";
    bad.excluded_from_means = true;
    r.cells.push_back(bad);
    return r;
}

/** Every counter of @p s, walked from its list, set to ++*next. */
template <typename Stats>
void
fillCounters(Stats *s, u64 *next)
{
    for (const core::CounterField<Stats> &f : core::counterFields<Stats>())
        s->*f.member = ++*next;
}

/**
 * Stats whose every field holds a distinct nonzero value: the
 * listed counters at every level, the hand-written members, one
 * entry of each breakdown and, unless @p depth is 0, two per_sm
 * entries filled the same way.
 */
core::SimStats
everyField(u64 *next, int depth)
{
    core::SimStats st;
    st.cycles = ++*next;
    st.timed_out = true;
    fillCounters(&st, next);
    st.max_stack_depth = unsigned(++*next);
    st.max_live_contexts = unsigned(++*next);
    st.num_sms = unsigned(++*next);
    st.units.emplace_back();
    st.units[0].name = "unit" + std::to_string(++*next);
    fillCounters(&st.units[0], next);
    fillCounters(&st.l2_slices.emplace_back(), next);
    fillCounters(&st.dram_channels.emplace_back(), next);
    fillCounters(&st.noc_ports.emplace_back(), next);
    for (int i = 0; depth > 0 && i < 2; ++i)
        st.per_sm.push_back(everyField(next, depth - 1));
    return st;
}

TEST(StatsIo, RoundTrip)
{
    u64 next = 0;
    const core::SimStats st = everyField(&next, 1);
    core::SimStats back;
    std::string err;
    ASSERT_TRUE(core::statsFromJson(jsonValue(st), &back, &err))
        << err;
    EXPECT_EQ(back, st);
}

TEST(StatsIo, RejectsValuesItWouldMisread)
{
    // Each document is a stats object with one bad member, at the
    // top level or inside a breakdown entry; the error names it.
    const char *const cases[][2] = {
        {R"({"fetches": -1})", "fetches"},
        {R"({"cycles": "abc"})", "cycles"},
        {R"({"cycles": 1.5})", "cycles"},
        {R"({"timed_out": 1})", "timed_out"},
        {R"({"num_sms": 4294967296})", "num_sms"},
        {R"({"units": [{"name": "MAD", "issues": -2}]})", "issues"},
        {R"({"units": [{"name": 7}]})", "name"},
        {R"({"l2_slices": [{"hits": 0.5}]})", "hits"},
        {R"({"dram_channels": [{"bytes": "9"}]})", "bytes"},
        {R"({"noc_ports": [{"stall_tenths": true}]})", "stall_tenths"},
        {R"({"per_sm": [{"l1_hits": -3}]})", "l1_hits"},
        {R"({"per_sm": [{"timed_out": "no"}]})", "timed_out"},
        {R"({"l2_slices": [3]})", "l2_slices"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c[0]);
        std::string err;
        Json j = Json::parse(c[0], &err);
        ASSERT_EQ(err, "");
        core::SimStats st;
        EXPECT_FALSE(core::statsFromJson(j, &st, &err));
        EXPECT_NE(err.find(std::string("'") + c[1] + "'"), std::string::npos)
            << err;
    }
}

TEST(StatsIo, MissingFieldsDefaultToZero)
{
    std::string err;
    Json j = Json::parse("{\"cycles\": 5}", &err);
    ASSERT_EQ(err, "");
    core::SimStats st;
    ASSERT_TRUE(core::statsFromJson(j, &st, &err)) << err;
    EXPECT_EQ(st.cycles, 5u);
    EXPECT_EQ(st.instructions, 0u);
    EXPECT_TRUE(st.units.empty());
}

TEST(StatsIo, RejectsNonObject)
{
    core::SimStats st;
    std::string err;
    EXPECT_FALSE(core::statsFromJson(Json(3), &st, &err));
    EXPECT_NE(err, "");
}

TEST(Results, JsonRoundTrip)
{
    Results r = sampleResults();
    Results back;
    std::string err;
    ASSERT_TRUE(Results::fromJson(jsonValue(r), &back, &err)) << err;
    EXPECT_EQ(back, r);
    // The serialized text is stable, too.
    EXPECT_EQ(back.toJsonText(), r.toJsonText());
}

TEST(Results, SchemaVersionMismatchIsRejected)
{
    Json j = jsonValue(sampleResults());
    for (auto &m : j.obj()) {
        if (m.first == "schema_version")
            m.second = Json(core::stats_schema_version + 1);
    }
    Results back;
    std::string err;
    EXPECT_FALSE(Results::fromJson(j, &back, &err));
    EXPECT_NE(err.find("schema_version"), std::string::npos);
}

/** Member @p key of object @p j set to @p v, or removed when null. */
void
setMember(Json *j, const std::string &key, const Json &v)
{
    Json::Object &o = j->obj();
    auto it = std::find_if(o.begin(), o.end(), [&](const auto &m) {
        return m.first == key;
    });
    if (v.isNull()) {
        if (it != o.end())
            o.erase(it);
    } else if (it != o.end()) {
        it->second = v;
    } else {
        o.emplace_back(key, v);
    }
}

TEST(Results, ReaderRejectsWronglyTypedFields)
{
    // Copies of bench/baseline.json with one member of the document,
    // its first cell or its first machine record changed (null:
    // removed). Each was read as something else before: 6.9 as 6,
    // -3 as 4294967293 SMs, 7 as the workload "".
    std::string err;
    const Json base = Json::parseFile(
        std::string(SIWI_SOURCE_DIR) + "/bench/baseline.json", &err);
    ASSERT_EQ(err, "");
    Results ok;
    ASSERT_TRUE(Results::fromJson(base, &ok, &err)) << err;
    const std::string cell = "cell 'fig7_regular/Baseline/3DFD'";
    const std::string machine = "machine 'fig7_regular/Baseline'";
    struct Case
    {
        const char *where; //!< "doc", "cell" or "machine"
        const char *key;
        Json value;
        std::string names; //!< the entry the error must name
    };
    const Case cases[] = {
        {"doc", "schema_version", Json(6.9), "'schema_version'"},
        {"cell", "num_sms", Json(-3), cell + ": 'num_sms'"},
        {"cell", "workload", Json(7), "cell 'fig7_regular/Baseline/?'"
                                      ": 'workload'"},
        {"doc", "suite", Json(3), "'suite'"},
        {"cell", "num_sms", Json(0), cell + ": 'num_sms'"},
        {"cell", "num_sms", Json(i64(1) << 32), cell + ": 'num_sms'"},
        {"cell", "num_sms", Json(1.0), cell + ": 'num_sms'"},
        {"cell", "ipc", Json("16.9"), cell + ": 'ipc'"},
        {"cell", "verified", Json(1), cell + ": 'verified'"},
        {"cell", "timed_out", Json(), cell + ": 'timed_out'"},
        {"cell", "policy", Json(), cell + ": 'policy'"},
        {"cell", "verify_msg", Json(false), cell + ": 'verify_msg'"},
        {"cell", "stats", Json(Json::Object{{"cycles", Json(-1)}}),
         cell + ": stats: 'cycles'"},
        {"machine", "machine", Json(Json::Array{}),
         "machine 'fig7_regular/?': 'machine'"},
        {"machine", "config", Json(), machine + ": lacks 'config'"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.where) + " " + c.key);
        Json doc = base;
        Json *target = &doc;
        if (std::string(c.where) == "cell")
            target = &doc.obj()[4].second.arr()[0];
        else if (std::string(c.where) == "machine")
            target = &doc.obj()[3].second.arr()[0];
        setMember(target, c.key, c.value);
        Results r;
        err.clear();
        EXPECT_FALSE(Results::fromJson(doc, &r, &err));
        EXPECT_NE(err.find(c.names), std::string::npos) << err;
    }
}

TEST(Results, FindAndHelpers)
{
    Results r = sampleResults();
    ASSERT_NE(r.find("fig7", "SBI", "BFS"), nullptr);
    EXPECT_DOUBLE_EQ(r.find("fig7", "SBI", "BFS")->ipc, 28.25);
    EXPECT_EQ(r.find("fig7", "SWI", "BFS"), nullptr);
    EXPECT_EQ(r.sweepNames(),
              (std::vector<std::string>{"fig7"}));
    EXPECT_EQ(r.verificationFailures(), 1u);
}

TEST(Results, TimedOutCellsAreCountedAndRoundTrip)
{
    Results r = sampleResults();
    r.cells[1].timed_out = true;
    EXPECT_EQ(r.timeouts(), 1u);

    Results back;
    std::string err;
    ASSERT_TRUE(Results::fromJson(jsonValue(r), &back, &err))
        << err;
    EXPECT_EQ(back, r);
    EXPECT_TRUE(back.cells[1].timed_out);
    EXPECT_EQ(back.cells[1].policy, "oldest");
}

TEST(Compare, TimedOutCandidateFailsTheGate)
{
    Results base = sampleResults();
    base.cells.pop_back(); // drop the unverified cell
    Results cand = base;
    cand.cells[0].timed_out = true;
    CompareReport rep = compareResults(base, cand, 0.02);
    EXPECT_FALSE(rep.pass());
    ASSERT_EQ(rep.timed_out.size(), 1u);
    EXPECT_NE(rep.format().find("TIMED-OUT"), std::string::npos);
}

TEST(Compare, IdenticalResultsPass)
{
    Results r = sampleResults();
    r.cells.pop_back(); // drop the unverified cell
    CompareReport rep = compareResults(r, r, 0.02);
    EXPECT_TRUE(rep.pass());
    EXPECT_EQ(rep.deltas.size(), r.cells.size());
    EXPECT_TRUE(rep.regressions.empty());
    EXPECT_NE(rep.format().find("PASS"), std::string::npos);
}

TEST(Compare, RegressionBeyondToleranceFails)
{
    Results base = sampleResults();
    base.cells.pop_back();
    Results cand = base;
    cand.cells[0].ipc *= 0.90; // -10%
    CompareReport rep = compareResults(base, cand, 0.02);
    EXPECT_FALSE(rep.pass());
    ASSERT_EQ(rep.regressions.size(), 1u);
    EXPECT_EQ(rep.regressions[0].workload, "BFS");
    EXPECT_NEAR(rep.regressions[0].relative, -0.10, 1e-12);
    EXPECT_NE(rep.format().find("FAIL"), std::string::npos);
}

TEST(Compare, RegressionWithinToleranceLegal)
{
    Results base = sampleResults();
    base.cells.pop_back();
    Results cand = base;
    cand.cells[0].ipc *= 0.99; // -1%, tolerance 2%
    EXPECT_TRUE(compareResults(base, cand, 0.02).pass());
}

TEST(Compare, ImprovementFailsTheGate)
{
    // The simulator is deterministic: a faster cell is as much an
    // unexplained change as a slower one.
    Results base = sampleResults();
    base.cells.pop_back();
    Results cand = base;
    cand.cells[0].ipc *= 1.5;
    CompareReport rep = compareResults(base, cand, 0.02);
    EXPECT_FALSE(rep.pass());
    ASSERT_EQ(rep.improvements.size(), 1u);
    EXPECT_NE(rep.format().find("IMPROVEMENTS"), std::string::npos);

    // At tolerance 0 the smallest representable change fails.
    cand = base;
    cand.cells[0].ipc = std::nextafter(cand.cells[0].ipc, 1e9);
    EXPECT_FALSE(compareResults(base, cand, 0.0).pass());
}

TEST(Compare, AddedCellFails)
{
    Results base = sampleResults();
    base.cells.pop_back();
    Results cand = base;
    base.cells.pop_back();
    CompareReport rep = compareResults(base, cand, 0.0);
    EXPECT_FALSE(rep.pass());
    ASSERT_EQ(rep.added.size(), 1u);
    EXPECT_TRUE(rep.missing.empty());
    EXPECT_NE(rep.format().find("ADDED"), std::string::npos);
}

TEST(Compare, MissingCellFails)
{
    Results base = sampleResults();
    base.cells.pop_back();
    Results cand = base;
    cand.cells.pop_back();
    CompareReport rep = compareResults(base, cand, 0.02);
    EXPECT_FALSE(rep.pass());
    ASSERT_EQ(rep.missing.size(), 1u);
    EXPECT_TRUE(rep.added.empty());
}

TEST(Compare, UnverifiedCandidateCellFails)
{
    Results base = sampleResults();
    base.cells.pop_back();
    Results cand = sampleResults(); // includes unverified LUD cell
    CompareReport rep = compareResults(base, cand, 0.02);
    EXPECT_FALSE(rep.pass());
    EXPECT_EQ(rep.unverified.size(), 1u);
    EXPECT_EQ(rep.added.size(), 1u);
}

TEST(Compare, ZeroBaselineIpcDoesNotDivide)
{
    Results base = sampleResults();
    base.cells.resize(1);
    base.cells[0].ipc = 0.0;
    Results cand = base;
    EXPECT_TRUE(compareResults(base, cand, 0.02).pass());
    cand.cells[0].ipc = 1.0;
    CompareReport rep = compareResults(base, cand, 0.02);
    ASSERT_EQ(rep.deltas.size(), 1u);
    EXPECT_DOUBLE_EQ(rep.deltas[0].relative, 1.0);
}

} // namespace
