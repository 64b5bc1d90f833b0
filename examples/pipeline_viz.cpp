/**
 * @file
 * Pipeline visualization: renders per-cycle execution-unit
 * occupancy as an ASCII timeline for a divergent kernel, showing
 * how SBI fills idle lanes with the other branch path and SWI with
 * other warps (the intuition of the paper's Figure 2).
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/siwi.hh"

using namespace siwi;
using pipeline::PipelineMode;

namespace {

isa::Program
kernel()
{
    isa::KernelBuilder b("viz");
    isa::Reg tid = b.reg(), c = b.reg(), v = b.reg();
    b.s2r(tid, isa::SpecialReg::TID);
    b.and_(c, tid, isa::Imm(1));
    b.if_(c);
    for (int i = 0; i < 6; ++i)
        b.iadd(v, v, isa::Imm(1));
    b.else_();
    for (int i = 0; i < 6; ++i)
        b.isub(v, v, isa::Imm(1));
    b.endIf();
    b.iadd(v, v, isa::Imm(9));
    return b.build();
}

void
show(PipelineMode mode)
{
    auto cfg = pipeline::SMConfig::make(mode);
    core::Kernel k = core::Kernel::compile(kernel());

    core::Gpu gpu(cfg);
    core::LaunchConfig lc;
    lc.grid_blocks = 2;
    lc.block_threads = cfg.warp_width;
    lc.max_cycles = 100000;
    struct Ev
    {
        Cycle cycle;
        WarpId warp;
        unsigned filled;
        bool secondary;
    };
    std::vector<Ev> evs;
    auto st =
        gpu.launchTraced(k, lc, [&](const pipeline::IssueEvent &e) {
            evs.push_back(
                {e.cycle, e.warp, e.mask.count(), e.secondary});
        });

    std::printf("\n=== %s: %llu cycles, IPC %.1f ===\n",
                pipelineModeName(mode),
                (unsigned long long)st.cycles, st.ipc());
    std::printf("issue timeline (one char per issue: "
                "P=primary, s=secondary; width = active lanes)\n");
    Cycle first = evs.empty() ? 0 : evs.front().cycle;
    std::map<Cycle, std::string> lines;
    for (const Ev &e : evs) {
        char tag = e.secondary ? 's' : 'P';
        char buf[64];
        std::snprintf(buf, sizeof buf, " [w%u %c x%u]",
                      unsigned(e.warp), tag, e.filled);
        lines[e.cycle] += buf;
    }
    for (auto &[cycle, text] : lines) {
        std::printf("  cyc %3llu:%s\n",
                    (unsigned long long)(cycle - first),
                    text.c_str());
    }
}

} // namespace

int
main()
{
    std::printf("Divergent if/else on 2 warps: watch the secondary "
                "scheduler fill idle lanes.\n");
    show(PipelineMode::Baseline);
    show(PipelineMode::SBI);
    show(PipelineMode::SBISWI);
    return 0;
}
