/**
 * @file
 * Cross-configuration determinism: the SIMT programming model
 * guarantees identical functional results regardless of the
 * microarchitecture. Random structured kernels must produce
 * bit-identical memory images on all five machines.
 */

#include <gtest/gtest.h>

#include "cfg/compiler.hh"
#include "common/rng.hh"
#include "core/gpu.hh"
#include "isa/builder.hh"

namespace siwi {
namespace {

using isa::Imm;
using isa::KernelBuilder;
using isa::Reg;
using isa::SpecialReg;
using pipeline::PipelineMode;

/**
 * Random race-free kernel generator: every thread works on its own
 * output cell; control flow depends on tid and loaded data.
 */
isa::Program
randomKernel(u64 seed)
{
    Rng rng(seed);
    KernelBuilder b("random");
    Reg gtid = b.reg(), v = b.reg(), w = b.reg(), c = b.reg(),
        addr = b.reg();
    b.s2r(gtid, SpecialReg::GTID);
    b.shl(addr, gtid, Imm(2));
    b.iadd(addr, addr, Imm(0x10000));
    b.ld(v, addr); // per-thread input
    b.mov(w, gtid);

    int depth = 0;
    int stmts = 6 + int(rng.below(8));
    for (int s = 0; s < stmts; ++s) {
        switch (rng.below(6)) {
          case 0:
            b.iadd(v, v, Imm(i32(rng.below(50))));
            break;
          case 1:
            b.imul(w, w, Imm(3));
            b.iadd(v, v, w);
            break;
          case 2:
            b.and_(c, gtid, Imm(i32(1 + rng.below(7))));
            b.if_(c);
            b.iadd(v, v, Imm(7));
            b.else_();
            b.isub(v, v, Imm(5));
            b.endIf();
            ++depth;
            break;
          case 3: {
            b.isetlt(c, v, Imm(i32(rng.below(1000))));
            b.if_(c);
            b.shl(v, v, Imm(1));
            b.endIf();
            break;
          }
          case 4: {
            Reg i = b.reg(), lc = b.reg();
            b.movi(i, 0);
            b.loop();
            b.iadd(v, v, Imm(1));
            b.iadd(i, i, Imm(1));
            b.isetlt(lc, i, Imm(i32(1 + rng.below(5))));
            b.endLoopIf(lc);
            break;
          }
          case 5:
            b.xor_(v, v, w);
            break;
        }
    }
    Reg out = b.reg();
    b.shl(out, gtid, Imm(2));
    b.iadd(out, out, Imm(0x40000));
    b.st(out, 0, v);
    return b.build();
}

class CrossConfig : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CrossConfig, IdenticalResultsOnAllMachines)
{
    isa::Program raw = randomKernel(GetParam() * 31 + 17);
    core::Kernel kernel = core::Kernel::compile(raw);

    const unsigned threads = 256;
    std::vector<u32> reference;
    for (PipelineMode m :
         {PipelineMode::Baseline, PipelineMode::Warp64,
          PipelineMode::SBI, PipelineMode::SWI,
          PipelineMode::SBISWI}) {
        core::Gpu gpu(pipeline::SMConfig::make(m));
        Rng data(99);
        for (unsigned i = 0; i < threads; ++i)
            gpu.memory().write32(0x10000 + Addr(i) * 4,
                                 u32(data.below(1 << 16)));
        core::LaunchConfig lc;
        lc.grid_blocks = 2;
        lc.block_threads = threads / 2;
        auto st = gpu.launch(kernel, lc);
        ASSERT_FALSE(st.timed_out)
            << pipeline::pipelineModeName(m);

        std::vector<u32> out =
            gpu.memory().readWords(0x40000, threads);
        if (reference.empty()) {
            reference = out;
        } else {
            for (unsigned i = 0; i < threads; ++i)
                ASSERT_EQ(out[i], reference[i])
                    << pipeline::pipelineModeName(m) << " thread "
                    << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossConfig,
                         ::testing::Range(0u, 12u));

TEST(CrossConfigKnobs, ConstraintVariantsAgreeFunctionally)
{
    isa::Program raw = randomKernel(4242);
    core::Kernel kernel = core::Kernel::compile(raw);
    std::vector<u32> reference;
    for (bool constraints : {true, false}) {
        for (bool mem_splits : {true, false}) {
            auto cfg =
                pipeline::SMConfig::make(PipelineMode::SBISWI);
            cfg.sbi_constraints = constraints;
            cfg.split_on_memory_divergence = mem_splits;
            core::Gpu gpu(cfg);
            for (unsigned i = 0; i < 128; ++i)
                gpu.memory().write32(0x10000 + Addr(i) * 4, i * 7);
            core::LaunchConfig lc;
            lc.block_threads = 128;
            gpu.launch(kernel, lc);
            auto out = gpu.memory().readWords(0x40000, 128);
            if (reference.empty())
                reference = out;
            else
                EXPECT_EQ(out, reference);
        }
    }
}

TEST(CrossConfigKnobs, ShufflePoliciesAgreeFunctionally)
{
    isa::Program raw = randomKernel(777);
    core::Kernel kernel = core::Kernel::compile(raw);
    std::vector<u32> reference;
    for (auto pol : {pipeline::LaneShufflePolicy::Identity,
                     pipeline::LaneShufflePolicy::MirrorOdd,
                     pipeline::LaneShufflePolicy::MirrorHalf,
                     pipeline::LaneShufflePolicy::Xor,
                     pipeline::LaneShufflePolicy::XorRev}) {
        auto cfg = pipeline::SMConfig::make(PipelineMode::SWI);
        cfg.lane_shuffle = pol;
        core::Gpu gpu(cfg);
        for (unsigned i = 0; i < 128; ++i)
            gpu.memory().write32(0x10000 + Addr(i) * 4, i * 13);
        core::LaunchConfig lc;
        lc.block_threads = 128;
        gpu.launch(kernel, lc);
        auto out = gpu.memory().readWords(0x40000, 128);
        if (reference.empty())
            reference = out;
        else
            EXPECT_EQ(out, reference)
                << pipeline::laneShuffleName(pol);
    }
}

TEST(CrossConfigKnobs, AssociativityAgreesFunctionally)
{
    isa::Program raw = randomKernel(31337);
    core::Kernel kernel = core::Kernel::compile(raw);
    std::vector<u32> reference;
    for (unsigned sets : {1u, 2u, 8u, 16u}) {
        auto cfg = pipeline::SMConfig::make(PipelineMode::SWI);
        cfg.lookup_sets = sets;
        core::Gpu gpu(cfg);
        for (unsigned i = 0; i < 128; ++i)
            gpu.memory().write32(0x10000 + Addr(i) * 4, i);
        core::LaunchConfig lc;
        lc.block_threads = 128;
        gpu.launch(kernel, lc);
        auto out = gpu.memory().readWords(0x40000, 128);
        if (reference.empty())
            reference = out;
        else
            EXPECT_EQ(out, reference) << sets << " sets";
    }
}

} // namespace
} // namespace siwi
