/**
 * @file
 * Golden spec-file test: the checked-in bench/specs/fast.json
 * must reproduce the committed bench/baseline.json at tolerance 0
 * with exactly the baseline's cells, and serialize byte-identically
 * at one worker and at eight. This is the committed-baseline gate
 * (CI runs it in every ctest leg), and it exercises determinism of
 * the whole spec -> expand -> run -> serialize pipeline.
 */

#include <gtest/gtest.h>

#include "runner/runner.hh"

using namespace siwi;
using namespace siwi::runner;

namespace {

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

        CompareReport rep = compareResults(base, res, 0.0);
        EXPECT_TRUE(rep.pass()) << "jobs=" << jobs << "\n"
                                << rep.format();
    }
}

} // namespace
