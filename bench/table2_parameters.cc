/**
 * @file
 * Table 2 reproduction: micro-architecture parameters of each
 * simulated configuration. With --json PATH the parameters are
 * also written as a machine-readable document.
 */

#include <cstdio>

#include "common/json.hh"
#include "core/config_io.hh"
#include "core/siwi.hh"
#include "runner/cli.hh"

using namespace siwi;
using pipeline::PipelineMode;

int
main(int argc, char **argv)
{
    runner::ArgList args(argc, argv);
    std::string json_path;
    args.option("--json", &json_path);
    if (!runner::finishArgs(args, "table2_parameters"))
        return 2;

    std::printf("Reproduction of Table 2: micro-architecture "
                "parameters\n");
    Json doc = Json::object();
    for (PipelineMode m :
         {PipelineMode::Baseline, PipelineMode::Warp64,
          PipelineMode::SBI, PipelineMode::SWI,
          PipelineMode::SBISWI}) {
        // The paper's single SM on its private DRAM channel.
        core::GpuConfig c = core::GpuConfig::make(m, 1);
        std::printf("\n### %s\n%smemory:             %g B/cycle, "
                    "%u cycles\n",
                    pipelineModeName(m), c.sm.summary().c_str(),
                    double(c.dram.bytes_per_cycle_x10) / 10.0,
                    c.dram.latency_cycles);
        // The full field-table dump (core/config_io.hh), so the
        // JSON form of Table 2 carries every knob a machine file
        // could override.
        doc.set(pipelineModeName(m), jsonValue(c));
    }
    std::printf("\nPaper Table 2 reference:\n"
                "  Baseline: 32x32 warps, sched 1cyc, delivery "
                "0cyc\n"
                "  SBI: 16x64, sched 1cyc, delivery 1cyc\n"
                "  SWI: 16x64, sched 2cyc, delivery 1cyc\n"
                "  common: 1GHz, exec 8cyc, scoreboard 6/warp, L1 "
                "48K 6-way 128B 3cyc, mem 10GB/s 330ns\n");

    if (!json_path.empty()) {
        std::string err;
        if (!doc.writeFile(json_path, 2, &err)) {
            std::fprintf(stderr, "%s\n", err.c_str());
            return 1;
        }
    }
    return 0;
}
