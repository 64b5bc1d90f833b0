/**
 * @file
 * CTA turnover: grids of small CTAs, several times what one SM can
 * hold, whose warps finish at different times.
 *
 * A retired warp's slot is free for the next CTA while the rest of
 * its own CTA still runs, so a block's launch-time warp list can
 * name a slot that another CTA now owns. Block retirement and
 * barrier release must count only the warps that still belong to
 * the block; counting the reused slot keeps the old block resident
 * forever and the SM runs to its cycle limit.
 *
 * A retired warp's slot can also still have an event in flight: a
 * load whose destination is never read, issued just before EXIT,
 * writes back after the warp is gone. When a new CTA has reused
 * the slot by then, the writeback must not release the new warp's
 * scoreboard entry (the SM panics on the freed entry, or a live
 * one is released early and hides a RAW hazard); while the slot is
 * still free, it must not put the retired warp back into a work
 * set (the audit panics).
 *
 * Every machine runs a gtid-indexed kernel whose warps loop a
 * different number of times, the same kernel with a barrier in
 * block-uniform code, and the same kernel ending in such a dead
 * load, at 64- to 512-thread CTAs, on one SM and on a 4-SM chip.
 * Each run is made with cycle skipping on and off, under the
 * work-set audit that covers the whole integration binary
 * (sleep_audit_env.cc, which also re-derives every cached
 * issue-stage verdict each step), and must finish, verify and
 * produce identical statistics in both stepping modes. The suites
 * never reach this path: every committed cell launches CTAs that
 * fill the SM or all fit at once.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "core/gpu.hh"
#include "isa/builder.hh"

namespace siwi {
namespace {

using isa::Imm;
using isa::KernelBuilder;
using isa::Reg;
using isa::SpecialReg;
using pipeline::PipelineMode;

constexpr Addr publish_base = 0x10000;
constexpr Addr out_base = 0x40000;

/** Ten times the 13k-19k cycles a 1-SM shape needs. */
constexpr Cycle cycle_cap = 200'000;

/** The kernel variants; all compute the same output. */
enum class Shape { Gtid, Barrier, DeadLoad };

/** Loop trips of thread @p gtid: warps of 32 threads differ. */
u32
tripsOf(u32 gtid)
{
    return ((gtid >> 5) & 3) * 10 + 1;
}

/**
 * out[gtid] = seed + sum over i < trips(gtid) of (gtid ^ i). With
 * Shape::Barrier, every thread first publishes 7 * gtid, waits at
 * a barrier, and seeds from its partner gtid ^ 32 (another warp on
 * 32-wide machines); otherwise the seed is 0. Shape::DeadLoad ends
 * in a load whose destination is never read.
 */
core::Kernel
turnoverKernel(Shape shape)
{
    const bool barrier = shape == Shape::Barrier;
    KernelBuilder b(barrier ? "turnover_bar" : "turnover");
    Reg gtid = b.reg(), t = b.reg(), trips = b.reg(), i = b.reg(),
        acc = b.reg(), addr = b.reg();
    b.s2r(gtid, SpecialReg::GTID);
    b.shr(t, gtid, Imm(5));
    b.and_(t, t, Imm(3));
    b.imul(trips, t, Imm(10));
    b.iadd(trips, trips, Imm(1));
    if (barrier) {
        b.imul(t, gtid, Imm(7));
        b.shl(addr, gtid, Imm(2));
        b.st(addr, i32(publish_base), t);
        b.bar();
        b.xor_(t, gtid, Imm(32));
        b.shl(addr, t, Imm(2));
        b.ld(acc, addr, i32(publish_base));
    } else {
        b.movi(acc, 0);
    }
    b.movi(i, 0);
    b.loop();
    b.xor_(t, gtid, i);
    b.iadd(acc, acc, t);
    b.iadd(i, i, Imm(1));
    b.isetlt(t, i, trips);
    b.endLoopIf(t);
    b.shl(addr, gtid, Imm(2));
    b.st(addr, i32(out_base), acc);
    if (shape == Shape::DeadLoad)
        b.ld(t, addr, i32(publish_base));
    return core::Kernel::compile(b.build());
}

u32
expected(u32 gtid, bool barrier)
{
    u32 acc = barrier ? 7 * (gtid ^ 32) : 0;
    for (u32 i = 0; i < tripsOf(gtid); ++i)
        acc += gtid ^ i;
    return acc;
}

struct Outcome
{
    core::SimStats stats;
    unsigned wrong = 0; //!< output words that differ
};

/** Eight times the threads one SM holds, in CTAs. */
unsigned
gridBlocks(const core::GpuConfig &chip, unsigned block_threads)
{
    return 8 * chip.sm.maxThreads() / block_threads;
}

Outcome
runShape(const core::GpuConfig &chip, const core::Kernel &kernel,
         bool barrier, unsigned block_threads, bool cycle_skip)
{
    core::Gpu gpu(chip);
    core::LaunchConfig lc;
    lc.block_threads = block_threads;
    lc.grid_blocks = gridBlocks(chip, block_threads);
    lc.max_cycles = cycle_cap;
    lc.cycle_skip = cycle_skip;
    Outcome o;
    o.stats = gpu.launch(kernel, lc);
    u32 threads = lc.grid_blocks * block_threads;
    for (u32 g = 0; g < threads; ++g) {
        if (gpu.memory().read32(out_base + Addr(g) * 4) !=
            expected(g, barrier))
            ++o.wrong;
    }
    return o;
}

struct Param
{
    PipelineMode mode;
    Shape shape;
};

/** Each Shape's name in PrintTo and in the test-name suffix. */
constexpr const char *shape_names[] = {"gtid", "barrier",
                                       "dead load"};
constexpr const char *shape_suffixes[] = {"_Gtid", "_Barrier",
                                          "_DeadLoad"};

/** Readable, build-independent test names in ctest listings. */
void
PrintTo(const Param &p, std::ostream *os)
{
    *os << pipeline::pipelineModeName(p.mode) << " "
        << shape_names[int(p.shape)];
}

class CtaTurnover : public testing::TestWithParam<Param>
{
};

TEST_P(CtaTurnover, EveryShapeFinishesAndVerifies)
{
    const Param p = GetParam();
    const bool barrier = p.shape == Shape::Barrier;
    const core::Kernel kernel = turnoverKernel(p.shape);
    for (unsigned sms : {1u, 4u}) {
        core::GpuConfig chip = core::GpuConfig::make(p.mode, sms);
        for (unsigned block : {64u, 128u, 256u, 512u}) {
            std::string label =
                std::string(pipeline::pipelineModeName(p.mode)) +
                " " + std::to_string(sms) + "-SM, CTAs of " +
                std::to_string(block);
            Outcome skip =
                runShape(chip, kernel, barrier, block, true);
            Outcome step =
                runShape(chip, kernel, barrier, block, false);
            EXPECT_FALSE(skip.stats.timed_out)
                << label << ": hit the " << cycle_cap
                << "-cycle cap";
            EXPECT_EQ(skip.wrong, 0u) << label;
            EXPECT_EQ(step.wrong, 0u) << label << " (no-skip)";
            EXPECT_EQ(skip.stats.blocks_launched,
                      gridBlocks(chip, block))
                << label;
            EXPECT_TRUE(skip.stats == step.stats)
                << label << ": SimStats differ between skip and "
                << "no-skip (skip cycles=" << skip.stats.cycles
                << " step cycles=" << step.stats.cycles << ")";
        }
    }
}

std::string
paramName(const testing::TestParamInfo<Param> &info)
{
    std::string name;
    for (const char *c = pipeline::pipelineModeName(info.param.mode);
         *c; ++c) {
        if (std::isalnum(static_cast<unsigned char>(*c)))
            name += *c;
    }
    return name + shape_suffixes[int(info.param.shape)];
}

INSTANTIATE_TEST_SUITE_P(
    Machines, CtaTurnover,
    testing::Values(Param{PipelineMode::Baseline, Shape::Gtid},
                    Param{PipelineMode::Baseline, Shape::Barrier},
                    Param{PipelineMode::Baseline, Shape::DeadLoad},
                    Param{PipelineMode::Warp64, Shape::Gtid},
                    Param{PipelineMode::Warp64, Shape::Barrier},
                    Param{PipelineMode::Warp64, Shape::DeadLoad},
                    Param{PipelineMode::SBI, Shape::Gtid},
                    Param{PipelineMode::SBI, Shape::Barrier},
                    Param{PipelineMode::SBI, Shape::DeadLoad},
                    Param{PipelineMode::SWI, Shape::Gtid},
                    Param{PipelineMode::SWI, Shape::Barrier},
                    Param{PipelineMode::SWI, Shape::DeadLoad},
                    Param{PipelineMode::SBISWI, Shape::Gtid},
                    Param{PipelineMode::SBISWI, Shape::Barrier},
                    Param{PipelineMode::SBISWI, Shape::DeadLoad}),
    paramName);

} // namespace
} // namespace siwi
