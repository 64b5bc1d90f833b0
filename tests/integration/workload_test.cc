/**
 * @file
 * Workload-suite integration tests: every benchmark must verify
 * functionally on every pipeline configuration (105 combinations).
 */

#include <gtest/gtest.h>

#include "workloads/suite.hh"
#include "workloads/workload.hh"

namespace siwi::workloads {
namespace {

using pipeline::PipelineMode;

struct Combo
{
    const char *workload;
    PipelineMode mode;
};

std::vector<Combo>
allCombos()
{
    std::vector<Combo> out;
    for (const Workload *w : allWorkloads()) {
        for (PipelineMode m :
             {PipelineMode::Baseline, PipelineMode::Warp64,
              PipelineMode::SBI, PipelineMode::SWI,
              PipelineMode::SBISWI}) {
            out.push_back({w->name(), m});
        }
    }
    return out;
}

class EveryWorkloadEveryMode
    : public ::testing::TestWithParam<Combo>
{
};

TEST_P(EveryWorkloadEveryMode, VerifiesFunctionally)
{
    const Workload *wl = findWorkload(GetParam().workload);
    ASSERT_NE(wl, nullptr);
    auto cfg = pipeline::SMConfig::make(GetParam().mode);
    RunResult res = runWorkload(*wl, cfg, SizeClass::Tiny);
    EXPECT_FALSE(res.stats.timed_out);
    EXPECT_TRUE(res.verified) << res.verify_msg;
    EXPECT_GT(res.stats.ipc(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, EveryWorkloadEveryMode,
    ::testing::ValuesIn(allCombos()),
    [](const ::testing::TestParamInfo<Combo> &info) {
        std::string n = info.param.workload;
        n += "_";
        n += pipeline::pipelineModeName(info.param.mode);
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(WorkloadRegistry, CountsMatchPaper)
{
    EXPECT_EQ(allWorkloads().size(), 21u);
    EXPECT_EQ(regularWorkloads().size(), 10u);
    EXPECT_EQ(irregularWorkloads().size(), 11u);
}

TEST(WorkloadRegistry, TmdExcludedFromMeans)
{
    unsigned excluded = 0;
    for (const Workload *w : allWorkloads())
        excluded += w->excludedFromMeans() ? 1 : 0;
    EXPECT_EQ(excluded, 2u);
    EXPECT_TRUE(findWorkload("TMD1")->excludedFromMeans());
    EXPECT_TRUE(findWorkload("TMD2")->excludedFromMeans());
    EXPECT_FALSE(findWorkload("BFS")->excludedFromMeans());
}

TEST(WorkloadRegistry, LookupByName)
{
    EXPECT_NE(findWorkload("Mandelbrot"), nullptr);
    EXPECT_EQ(findWorkload("NotABenchmark"), nullptr);
}

TEST(WorkloadRegistry, Tmd1HasLayoutViolations)
{
    // The paper's TMD1 anomaly: non-thread-frontier code layout.
    auto cfg = pipeline::SMConfig::make(PipelineMode::Baseline);
    RunResult t1 = runWorkload(*findWorkload("TMD1"), cfg,
                               SizeClass::Tiny);
    RunResult t2 = runWorkload(*findWorkload("TMD2"), cfg,
                               SizeClass::Tiny);
    EXPECT_GT(t1.layout_violations, 0u);
    EXPECT_EQ(t2.layout_violations, 0u);
}

TEST(WorkloadRegistry, IrregularWorkloadsDiverge)
{
    // Sanity: irregular workloads must actually create divergence
    // on the heap configurations.
    auto cfg = pipeline::SMConfig::make(PipelineMode::SBI);
    for (const char *name :
         {"BFS", "Eigenvalues", "Mandelbrot", "SortingNetworks"}) {
        RunResult res = runWorkload(*findWorkload(name), cfg,
                                    SizeClass::Tiny);
        EXPECT_GT(res.stats.branch_divergences, 0u) << name;
        EXPECT_GT(res.stats.warp_splits, 0u) << name;
    }
}

TEST(WorkloadRegistry, RegularWorkloadsMostlyConvergent)
{
    auto cfg = pipeline::SMConfig::make(PipelineMode::SBI);
    for (const char *name : {"BlackScholes", "MatrixMul"}) {
        RunResult res = runWorkload(*findWorkload(name), cfg,
                                    SizeClass::Tiny);
        EXPECT_EQ(res.stats.branch_divergences, 0u) << name;
    }
}

TEST(WorkloadVerify, MismatchMessagesPrintExactValues)
{
    // Word values above 2^24 must not lose digits on the way into
    // the failure message (a double-formatted u32 printed both of
    // these as 4.29497e+09).
    mem::MemoryImage mem;
    mem.write32(out_a, 4294967294u);
    std::string why;
    EXPECT_TRUE(checkI(mem, out_a, 4294967294u, "out", 7, &why));
    EXPECT_TRUE(why.empty());
    EXPECT_FALSE(checkI(mem, out_a, 4294967295u, "out", 7, &why));
    EXPECT_EQ(why, "out[7]: expected 4294967295, got 4294967294");

    mem.writeF32(out_b, 1.5f);
    EXPECT_TRUE(checkF(mem, out_b, 1.50001f, "f", 0, &why));
    EXPECT_FALSE(checkF(mem, out_b, 2.25f, "f", 0, &why));
    EXPECT_EQ(why, "f[0]: expected 2.25, got 1.5");
}

} // namespace
} // namespace siwi::workloads
