#include "runner/experiment_runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "common/log.hh"

namespace siwi::runner {

namespace {

/** Number of workers @p jobs resolves to on this host. */
unsigned
resolveJobs(unsigned jobs)
{
    if (jobs)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * dispatchOrder()'s static-work estimate of @p wl at @p size:
 * threads x raw instructions of its kernel instance.
 */
u64
staticWork(const workloads::Workload &wl, workloads::SizeClass size)
{
    constexpr size_t kSizes = std::size(workloads::size_class_names);
    const std::vector<const workloads::Workload *> &all =
        workloads::allWorkloads();
    // Building an instance costs far more than sorting a pass, so
    // the registry's table is built once, [workload][size].
    static const std::vector<u64> table = [] {
        std::vector<u64> t;
        for (const workloads::Workload *w : workloads::allWorkloads()) {
            for (size_t sc = 0; sc < kSizes; ++sc) {
                const workloads::Instance inst =
                    w->instance(workloads::SizeClass(sc));
                t.push_back(u64(inst.grid_blocks) * inst.block_threads *
                            inst.raw.size());
            }
        }
        return t;
    }();
    auto it = std::find(all.begin(), all.end(), &wl);
    siwi_assert(it != all.end(), wl.name(), " is not registered");
    return table[size_t(it - all.begin()) * kSizes + size_t(size)];
}

} // namespace

std::vector<size_t>
dispatchOrder(const std::vector<SweepSpec> &sweeps,
              const std::vector<CellSpec> &cells)
{
    std::vector<u64> work(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const SweepSpec &s = sweeps[cells[i].sweep];
        work[i] = staticWork(*s.wls[cells[i].wl], s.size);
    }
    std::vector<size_t> order(cells.size());
    std::iota(order.begin(), order.end(), size_t(0));
    std::stable_sort(order.begin(), order.end(),
                     [&work](size_t a, size_t b) {
                         return work[a] > work[b];
                     });
    return order;
}

unsigned
effectiveJobs(unsigned jobs, size_t cells)
{
    return unsigned(std::min<size_t>(resolveJobs(jobs),
                                     std::max<size_t>(cells, 1)));
}

CellResult
runCell(const SweepSpec &sweep, size_t machine, size_t wl,
        size_t sms, size_t policy, bool cycle_skip)
{
    // The exact chip the machineRecords block advertises — chip
    // overrides (L2 slicing, DRAM channels, NoC) included.
    core::GpuConfig chip =
        resolvedCellConfig(sweep, machine, sms, policy);
    workloads::RunResult res = workloads::runWorkload(
        *sweep.wls[wl], chip, sweep.size, cycle_skip);

    CellResult c;
    labelCell(sweep, machine, wl, sms, policy, &c);
    c.verified = res.verified;
    c.verify_msg = res.verify_msg;
    c.timed_out = res.stats.timed_out;
    c.stats = res.stats;
    c.ipc = res.stats.ipc();
    return c;
}

void
labelCell(const SweepSpec &sweep, size_t machine, size_t wl,
          size_t sms, size_t policy, CellResult *c)
{
    const workloads::Workload &w = *sweep.wls[wl];
    const frontend::SchedPolicyKind pol =
        effectivePolicy(sweep, machine, policy);
    c->sweep = sweep.name;
    c->num_sms = sweep.smsAt(sms);
    // Policy and SM count are part of the cell identity (baselines
    // and tables key on the machine label), so non-default cells
    // carry them in the label; plain oldest-first single-SM labels
    // stay unchanged.
    c->machine =
        cellMachineLabel(sweep.machines[machine].name, pol, c->num_sms);
    c->policy = frontend::schedPolicyName(pol);
    c->workload = w.name();
    c->size = sizeClassName(sweep.size);
    c->excluded_from_means = w.excludedFromMeans();
}

std::vector<MachineRecord>
machineRecords(const std::vector<SweepSpec> &sweeps)
{
    std::vector<MachineRecord> out;
    for (const SweepSpec &s : sweeps) {
        for (size_t n = 0; n < s.sms.size(); ++n) {
            for (size_t p = 0; p < s.policies.size(); ++p) {
                for (size_t m = 0; m < s.machines.size(); ++m) {
                    out.push_back(
                        {s.name,
                         cellMachineLabel(
                             s.machines[m].name,
                             effectivePolicy(s, m, p),
                             s.smsAt(n)),
                         resolvedCellConfig(s, m, n, p)});
                }
            }
        }
    }
    return out;
}

Results
runSweeps(const std::vector<SweepSpec> &sweeps_in,
          const RunOptions &opts, const CellStep &step)
{
    // Normalize a private copy: identical machine columns would
    // run identical cells, so they are dropped (with a warning)
    // before expansion.
    std::vector<SweepSpec> sweeps = sweeps_in;
    for (SweepSpec &s : sweeps)
        s.dedupeMachines();

    const std::vector<CellSpec> cells = expandCells(sweeps);
    const std::vector<size_t> order = dispatchOrder(sweeps, cells);
    const unsigned jobs = effectiveJobs(opts.jobs, cells.size());

    Results out;
    out.suite = opts.suite_label;
    out.machines = machineRecords(sweeps);
    out.cells.resize(cells.size());

    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex io_mutex;

    auto worker = [&] {
        for (;;) {
            size_t k = next.fetch_add(1);
            if (k >= cells.size())
                return;
            const size_t i = order[k];
            const CellSpec &cs = cells[i];
            bool cached = false;
            CellResult c =
                step ? step(sweeps[cs.sweep], cs, &cached)
                     : runCell(sweeps[cs.sweep], cs.machine, cs.wl,
                               cs.sms, cs.policy, opts.cycle_skip);
            size_t n = done.fetch_add(1) + 1;
            if (opts.progress || !c.verified || c.timed_out) {
                std::lock_guard<std::mutex> lock(io_mutex);
                if (opts.progress) {
                    std::fprintf(stderr,
                                 "[%zu/%zu] %s %s %s  ipc %.2f%s%s%s\n",
                                 n, cells.size(), c.sweep.c_str(),
                                 c.machine.c_str(),
                                 c.workload.c_str(), c.ipc,
                                 cached ? "  (cached)" : "",
                                 c.verified ? "" : "  VERIFY FAIL",
                                 c.timed_out ? "  TIMED OUT" : "");
                } else if (!c.verified) {
                    std::fprintf(
                        stderr,
                        "VERIFICATION FAILED: %s on %s: %s\n",
                        c.workload.c_str(), c.machine.c_str(),
                        c.verify_msg.c_str());
                } else {
                    std::fprintf(
                        stderr,
                        "TIMED OUT: %s on %s truncated at the "
                        "cycle cap; counters cover only the "
                        "simulated prefix\n",
                        c.workload.c_str(), c.machine.c_str());
                }
            }
            out.cells[i] = std::move(c);
        }
    };

    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            threads.emplace_back(worker);
        for (std::thread &t : threads)
            t.join();
    }
    return out;
}

} // namespace siwi::runner
