/**
 * @file
 * Figure 2 reproduction: pipeline contents while executing an
 * if-then-else block with 2 warps of 4 threads, under classic SIMT,
 * SBI (with and without reconvergence constraints), SWI, and
 * SBI+SWI.
 *
 * Prints, per cycle, which (warp, pc, mask) issued on which
 * execution group -- the textual equivalent of the paper's colored
 * pipeline diagrams. With --json PATH the issue traces of all five
 * configurations are written as one machine-readable document.
 */

#include <cstdio>
#include <vector>

#include "common/json.hh"
#include "core/siwi.hh"
#include "runner/cli.hh"

using namespace siwi;
using pipeline::PipelineMode;
using pipeline::SMConfig;

namespace {

/**
 * The paper's example: instructions numbered 1..6; the if-branch
 * holds 2..4, the else-branch 5, reconvergence at 6. Odd threads
 * take the if path.
 */
isa::Program
figure2Kernel()
{
    isa::KernelBuilder b("fig2");
    isa::Reg tid = b.reg(), c = b.reg(), v = b.reg();
    b.s2r(tid, isa::SpecialReg::TID);     // "1"
    b.and_(c, tid, isa::Imm(1));
    b.if_(c);
    b.iadd(v, v, isa::Imm(2));            // "2"
    b.iadd(v, v, isa::Imm(3));            // "3"
    b.iadd(v, v, isa::Imm(4));            // "4"
    b.else_();
    b.isub(v, v, isa::Imm(5));            // "5"
    b.endIf();
    b.iadd(v, v, isa::Imm(6));            // "6"
    return b.build();
}

void
runAndPrint(const char *title, SMConfig cfg, Json *trace_doc)
{
    cfg.warp_width = 4;
    cfg.num_warps = 2;
    cfg.mad_width = 4;
    cfg.sfu_width = 4;
    cfg.lsu_width = 4;
    cfg.validate();

    core::Kernel kernel = core::Kernel::compile(figure2Kernel());

    core::Gpu gpu(cfg);
    core::LaunchConfig lc;
    lc.grid_blocks = 2;
    lc.block_threads = 4;
    lc.max_cycles = 100000;
    struct Ev
    {
        Cycle cycle;
        std::string unit;
        WarpId warp;
        Pc pc;
        std::string mask;
        bool secondary;
    };
    std::vector<Ev> evs;
    auto st = gpu.launchTraced(
        kernel, lc, [&](const pipeline::IssueEvent &e) {
            evs.push_back({e.cycle, std::string(e.unit), e.warp,
                           e.pc, e.mask.toString(4), e.secondary});
        });

    std::printf("\n--- %s (%llu cycles, %llu issues) ---\n", title,
                (unsigned long long)st.cycles,
                (unsigned long long)st.instructions);
    std::printf("cycle  unit  sched  warp  pc  lanes(0..3)\n");
    for (const Ev &e : evs) {
        std::printf("%5llu  %-4s  %-5s  w%u    %2u  %s\n",
                    (unsigned long long)e.cycle, e.unit.c_str(),
                    e.secondary ? "sec" : "prim", unsigned(e.warp),
                    e.pc, e.mask.c_str());
    }

    if (!trace_doc)
        return;
    Json jevs = Json::array();
    for (const Ev &e : evs) {
        Json je = Json::object();
        je.set("cycle", Json(e.cycle));
        je.set("unit", Json(e.unit));
        je.set("scheduler",
               Json(e.secondary ? "secondary" : "primary"));
        je.set("warp", Json(unsigned(e.warp)));
        je.set("pc", Json(e.pc));
        je.set("lanes", Json(e.mask));
        jevs.push(std::move(je));
    }
    Json jc = Json::object();
    jc.set("cycles", Json(st.cycles));
    jc.set("issues", Json(st.instructions));
    jc.set("events", std::move(jevs));
    trace_doc->set(title, std::move(jc));
}

} // namespace

int
main(int argc, char **argv)
{
    runner::ArgList args(argc, argv);
    std::string json_path;
    args.option("--json", &json_path);
    if (!runner::finishArgs(args, "fig2_pipeline"))
        return 2;
    Json trace_doc = Json::object();
    Json *trace = json_path.empty() ? nullptr : &trace_doc;

    std::printf("Reproduction of Figure 2: execution pipeline for "
                "an if-then-else block,\n2 warps of 4 threads "
                "(odd threads take the if path).\n");

    runAndPrint("(a) SIMT baseline",
                SMConfig::make(PipelineMode::Baseline), trace);

    {
        SMConfig c = SMConfig::make(PipelineMode::SBI);
        c.sbi_constraints = false;
        runAndPrint("(b) SBI, no reconvergence constraints", c,
                    trace);
    }
    runAndPrint("(c) SBI with constraints",
                SMConfig::make(PipelineMode::SBI), trace);
    runAndPrint("(d) SWI", SMConfig::make(PipelineMode::SWI),
                trace);
    runAndPrint("(e) SBI+SWI",
                SMConfig::make(PipelineMode::SBISWI), trace);

    std::string err;
    if (!json_path.empty() &&
        !trace_doc.writeFile(json_path, 2, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    return 0;
}
