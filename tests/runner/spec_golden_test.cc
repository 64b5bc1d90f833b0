/**
 * @file
 * Golden spec-file test: the checked-in bench/specs/fast.json
 * must reproduce the committed bench/baseline.json byte for byte
 * (every counter, every machines block, the key order) at one
 * worker and at eight, and at tolerance 0 with exactly the
 * baseline's cells. This is the committed-baseline gate (CI runs
 * it in every ctest leg), and it exercises determinism of the
 * whole spec -> expand -> run -> serialize pipeline.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "runner/runner.hh"

using namespace siwi;
using namespace siwi::runner;

namespace {

/** "line N: -<a line> +<b line>" at the first difference. */
std::string
firstDifference(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (int n = 1;; ++n) {
        const bool more_a = bool(std::getline(sa, la));
        const bool more_b = bool(std::getline(sb, lb));
        if (!more_a && !more_b)
            return "no line differs";
        if (!more_a || !more_b || la != lb)
            return "line " + std::to_string(n) + ": -" +
                   (more_a ? la : "<end>") + " +" + (more_b ? lb : "<end>");
    }
}

TEST(SpecGolden, FastSpecMatchesCommittedBaseline)
{
    const std::string root = SIWI_SOURCE_DIR;
    MachineRegistry reg;
    std::vector<SweepSpec> sweeps;
    std::string label, err;
    ASSERT_TRUE(loadSpecFile(root + "/bench/specs/fast.json", &reg,
                             &sweeps, &label, &err))
        << err;
    ASSERT_EQ(label, "fast");
    Results base;
    ASSERT_TRUE(
        Results::load(root + "/bench/baseline.json", &base, &err))
        << err;
    std::ifstream in(root + "/bench/baseline.json", std::ios::binary);
    std::ostringstream committed;
    committed << in.rdbuf();

    std::string first;
    for (unsigned jobs : {1u, 8u}) {
        RunOptions opts;
        opts.jobs = jobs;
        opts.suite_label = label;
        Results res = runSweeps(sweeps, opts);
        std::string json = res.toJsonText();
        if (first.empty())
            first = json;
        EXPECT_EQ(json, first) << "jobs=" << jobs;
        EXPECT_TRUE(json == committed.str())
            << "jobs=" << jobs << ": bench/baseline.json "
            << firstDifference(committed.str(), json);

        CompareReport rep = compareResults(base, res, 0.0);
        EXPECT_TRUE(rep.pass()) << "jobs=" << jobs << "\n"
                                << rep.format();
    }
}

} // namespace
