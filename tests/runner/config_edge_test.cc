/**
 * @file
 * Edge values of every u32 configuration key. Set to 0, 1, 2^31
 * or 2^32-1 through the one override path (machineApplyKeyValue),
 * a key must either be rejected by the config invariants with a
 * message, or yield a cell that returns: verified, failed with a
 * message, or timed out. It must never abort the process or
 * allocate without bound. A CCT too small for the kernel's
 * divergence fails its cell at once with a heap-livelock message.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "checked_in_spec.hh"
#include "core/config_io.hh"
#include "pipeline/config_io.hh"
#include "runner/runner.hh"

using namespace siwi;
using namespace siwi::runner;

namespace {

constexpr u32 edge_values[] = {0, 1, u32(1) << 31, ~u32(0)};

/** Keys of every u32 field of the SM and chip tables. */
std::vector<std::string>
u32Keys()
{
    std::vector<std::string> keys;
    for (const ConfigField<pipeline::SMConfig> &f :
         pipeline::smConfigFields()) {
        if (f.type == ConfigFieldType::U32)
            keys.emplace_back(f.key);
    }
    for (const ConfigField<core::GpuConfig> &f :
         core::gpuConfigFields()) {
        if (f.type == ConfigFieldType::U32)
            keys.emplace_back(f.key);
    }
    return keys;
}

/** Built-in machine @p base with "key=value" @p kv applied. */
MachineSpec
machineWith(const char *base, const std::string &kv)
{
    MachineRegistry reg;
    MachineSpec m = *reg.find(base);
    std::string err;
    EXPECT_TRUE(machineApplyKeyValue(&m, kv, &err)) << err;
    return m;
}

/** Tiny BFS on @p m with @p num_sms SMs. */
SweepSpec
bfsSweep(const MachineSpec &m, unsigned num_sms)
{
    SweepSpec s;
    s.name = "edge";
    s.machines = {m};
    s.wls = {workloads::findWorkload("BFS")};
    s.size = workloads::SizeClass::Tiny;
    s.sms = {num_sms};
    return s;
}

/**
 * Every (key, edge value) on built-in machine @p base with
 * @p num_sms SMs: rejected with a message, or the cell returns
 * with a verdict.
 */
void
checkEveryKey(const char *base, unsigned num_sms)
{
    MachineRegistry reg;
    const MachineSpec *machine = reg.find(base);
    ASSERT_NE(machine, nullptr);
    unsigned ran = 0;
    for (const std::string &key : u32Keys()) {
        for (u32 v : edge_values) {
            const std::string kv = key + "=" + std::to_string(v);
            SCOPED_TRACE(std::string(base) + " " + kv);
            MachineSpec m = *machine;
            std::string err;
            if (!machineApplyKeyValue(&m, kv, &err)) {
                EXPECT_FALSE(err.empty());
                continue;
            }
            const SweepSpec s = bfsSweep(m, num_sms);
            if (!checkSweep(s).empty())
                continue;
            CellResult c = runCell(s, 0, 0);
            EXPECT_TRUE(c.verified || c.timed_out || !c.verify_msg.empty());
            ++ran;
        }
    }
    // Every key's default is valid, so most edge values run.
    EXPECT_GT(ran, 50u);
}

// One case per machine and SM count, so ctest runs them in
// parallel. cct_capacity=1 livelocks the SBI+SWI heap on BFS (a
// branch re-posts on the full heap while hot slot 1 waits at a
// SYNC gate); the cell fails as soon as the SM proves it.
TEST(ConfigEdge, EveryU32KeyOnBaseline1Sm)
{
    checkEveryKey("Baseline", 1);
}

TEST(ConfigEdge, EveryU32KeyOnBaseline2Sm)
{
    checkEveryKey("Baseline", 2);
}

TEST(ConfigEdge, EveryU32KeyOnSbiSwi1Sm)
{
    checkEveryKey("SBI+SWI", 1);
}

TEST(ConfigEdge, EveryU32KeyOnSbiSwi2Sm)
{
    checkEveryKey("SBI+SWI", 2);
}

/**
 * @p key=@p value (by default 2^32-1) on a 2-SM SBI+SWI chip: an
 * error naming @p key.
 */
void
expectBoundNamesKey(const char *key, const char *value = "4294967295")
{
    const std::string kv = std::string(key) + "=" + value;
    SCOPED_TRACE(kv);
    MachineSpec m = machineWith("SBI+SWI", kv);
    std::string err = checkSweep(bfsSweep(m, 2));
    EXPECT_NE(err.find(key), std::string::npos) << err;
}

TEST(ConfigEdge, BoundedKeysNameThemselves)
{
    // The counts that size per-SM or per-chip storage.
    expectBoundNamesKey("num_warps");
    expectBoundNamesKey("mad_groups");
    expectBoundNamesKey("scoreboard_entries");
    expectBoundNamesKey("cct_capacity");
    expectBoundNamesKey("write_buffer_entries");
    expectBoundNamesKey("max_blocks_resident");
    // With no resident CTA a cell could only wait for the cycle cap.
    expectBoundNamesKey("max_blocks_resident", "0");
    expectBoundNamesKey("l1_size_bytes");
    expectBoundNamesKey("l2_size_bytes");
    expectBoundNamesKey("dram_channels");
    expectBoundNamesKey("dram_queue_depth");
}

/**
 * @p key=@p value on built-in machine @p base breaks an invariant
 * that spans several keys: the error names @p key and its value.
 */
void
expectInvariantNamesKey(const char *base, const char *key,
                        const char *value)
{
    const std::string kv = std::string(key) + "=" + value;
    SCOPED_TRACE(std::string(base) + " " + kv);
    MachineSpec m = machineWith(base, kv);
    std::string err = checkSweep(bfsSweep(m, 1));
    EXPECT_NE(err.find(std::string(key) + " (" + value + ")"),
              std::string::npos)
        << err;
}

TEST(ConfigEdge, InvariantsNameTheirKey)
{
    for (const char *unit : {"mad_width", "sfu_width", "lsu_width"})
        expectInvariantNamesKey("SBI+SWI", unit, "0");
    // One warp cannot split across Baseline's two pools.
    expectInvariantNamesKey("Baseline", "num_warps", "1");
    // Three lanes do not divide a 32-wide warp.
    expectInvariantNamesKey("Baseline", "sfu_width", "3");
    expectInvariantNamesKey("Baseline", "lsu_width", "3");
}

/** Tiny BFS (128-thread CTAs) on @p base with @p warps warps. */
void
expectCtaTooLarge(const char *base, unsigned warps)
{
    SCOPED_TRACE(base);
    MachineSpec m = machineWith(base, "num_warps=" + std::to_string(warps));
    ASSERT_EQ(m.config.checkInvariants(), "");
    CellResult c = runCell(bfsSweep(m, 1), 0, 0);
    EXPECT_FALSE(c.verified);
    EXPECT_FALSE(c.timed_out);
    EXPECT_NE(c.verify_msg.find("BFS launches 128-thread CTAs"),
              std::string::npos);
    EXPECT_NE(c.verify_msg.find("the SM holds only 64 threads"),
              std::string::npos);
}

TEST(ConfigEdge, CtaLargerThanSmFailsWithMessage)
{
    // Two 32-wide warps hold 64 threads, and so does one 64-wide
    // warp.
    expectCtaTooLarge("Baseline", 2);
    expectCtaTooLarge("SBI+SWI", 1);
}

/**
 * fast.json's @p workload on @p machine at cct_capacity=@p cap, a
 * heap livelock: the cell must fail with the diagnostic, neither
 * verified nor timed out, within a second (stepping to the
 * 50M-cycle cap took about 15 s).
 */
void
expectHeapLivelock(const char *machine, const char *workload,
                   unsigned cap)
{
    const std::string kv = "cct_capacity=" + std::to_string(cap);
    SCOPED_TRACE(std::string(workload) + " on " + machine + " " + kv);
    SweepSpec s = checkedInSweep("fast.json", "fig7_irregular");
    MachineRegistry reg;
    MachineSpec m = *reg.find(machine);
    std::string err;
    ASSERT_TRUE(machineApplyKeyValue(&m, kv, &err)) << err;
    s.machines = {m};
    s.wls = {workloads::findWorkload(workload)};
    ASSERT_EQ(checkSweep(s), "");

    auto start = std::chrono::steady_clock::now();
    CellResult c = runCell(s, 0, 0);
    std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_FALSE(c.verified);
    EXPECT_FALSE(c.timed_out);
    EXPECT_EQ(c.verify_msg.find("heap livelock: warp "), 0u)
        << c.verify_msg;
    EXPECT_NE(c.verify_msg.find(" at cycle "), std::string::npos);
    EXPECT_NE(c.verify_msg.find("(" + kv + ")"), std::string::npos);
    EXPECT_LT(took.count(), 1.0);
}

TEST(ConfigEdge, HeapLivelockFailsFastWithMessage)
{
    // Every schedulable hot slot waits on a divergent branch that
    // re-posts on the full heap...
    for (const char *machine : {"SBI", "SWI", "SBI+SWI", "Warp64"})
        expectHeapLivelock(machine, "TMD1", 2);
    expectHeapLivelock("SBI+SWI", "TMD1", 3);
    // ...or, in hot slot 1, behind a closed SYNC gate.
    expectHeapLivelock("SBI+SWI", "BFS", 1);
}

} // namespace
