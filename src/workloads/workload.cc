#include "workloads/workload.hh"

#include "common/log.hh"
#include "workloads/suite.hh"

namespace siwi::workloads {

const std::vector<const Workload *> &
allWorkloads()
{
    static const std::vector<const Workload *> all = [] {
        std::vector<const Workload *> v;
        for (const Workload *w : regularSuite())
            v.push_back(w);
        for (const Workload *w : irregularSuite())
            v.push_back(w);
        for (const Workload *w : tmdSuite())
            v.push_back(w);
        return v;
    }();
    return all;
}

const Workload *
findWorkload(std::string_view name)
{
    for (const Workload *w : allWorkloads()) {
        if (name == w->name())
            return w;
    }
    return nullptr;
}

std::vector<const Workload *>
regularWorkloads()
{
    std::vector<const Workload *> v;
    for (const Workload *w : allWorkloads()) {
        if (w->regular())
            v.push_back(w);
    }
    return v;
}

std::vector<const Workload *>
irregularWorkloads()
{
    std::vector<const Workload *> v;
    for (const Workload *w : allWorkloads()) {
        if (!w->regular())
            v.push_back(w);
    }
    return v;
}

RunResult
runWorkload(const Workload &wl, const pipeline::SMConfig &cfg,
            SizeClass sc)
{
    return runWorkload(wl, cfg, sc, 1);
}

RunResult
runWorkload(const Workload &wl, const pipeline::SMConfig &cfg,
            SizeClass sc, unsigned num_sms, bool cycle_skip)
{
    return runWorkload(wl, core::GpuConfig::make(cfg, num_sms),
                       sc, cycle_skip);
}

RunResult
runWorkload(const Workload &wl, const core::GpuConfig &chip,
            SizeClass sc, bool cycle_skip)
{
    Instance inst = wl.instance(sc);
    RunResult res;
    // A CTA must fit on one SM (SM::launch asserts it). Shrinking
    // num_warps or warp_width can violate that for a valid config,
    // so a mismatch is this cell's failure, not a panic.
    if (inst.block_threads > chip.sm.maxThreads()) {
        res.verify_msg = std::string(wl.name()) + " launches " +
                         std::to_string(inst.block_threads) +
                         "-thread CTAs, but the SM holds only " +
                         std::to_string(chip.sm.maxThreads()) +
                         " threads (num_warps x warp_width)";
        return res;
    }
    core::Kernel kernel = core::Kernel::compile(inst.raw,
                                                inst.compile);

    core::Gpu gpu(chip);
    wl.init(gpu.memory(), sc);

    core::LaunchConfig lc;
    lc.grid_blocks = inst.grid_blocks;
    lc.block_threads = inst.block_threads;
    lc.cycle_skip = cycle_skip;

    res.stats = gpu.launch(kernel, lc);
    res.layout_violations = kernel.layoutViolations();
    res.skipped_cycles = gpu.skippedCycles();
    // A launch that stopped on a stuck warp left its results
    // unwritten: the cell fails with the reason.
    if (!gpu.failure().empty()) {
        res.verify_msg = gpu.failure();
        return res;
    }
    res.verified = wl.verify(gpu.memory(), sc, &res.verify_msg);
    return res;
}

} // namespace siwi::workloads
