/**
 * @file
 * Concurrent execution of experiment sweeps.
 *
 * Cells are embarrassingly parallel: each one compiles its kernel,
 * builds its own GPU, generates its own inputs and verifies its
 * own outputs, with no shared mutable state (workload objects are
 * immutable singletons, RNGs are per-cell). The runner therefore
 * uses a plain std::thread pool pulling dispatch positions off one
 * atomic counter. Position k runs the k-th cell of dispatchOrder(),
 * heaviest static work first, so the long cells start at once;
 * each result lands in its cell's pre-sized canonical slot, so the
 * output order — and the serialized JSON — is byte-identical for
 * any thread count.
 */

#ifndef SIWI_RUNNER_EXPERIMENT_RUNNER_HH
#define SIWI_RUNNER_EXPERIMENT_RUNNER_HH

#include <functional>

#include "runner/results.hh"
#include "runner/sweep.hh"

namespace siwi::runner {

/** Execution knobs of one runner invocation. */
struct RunOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /** Per-cell progress lines on stderr. */
    bool progress = false;
    /** Label copied into Results::suite. */
    std::string suite_label;
    /**
     * Event-driven cycle skipping (core::LaunchConfig::cycle_skip).
     * Results are bit-identical either way; off (siwi-run
     * --no-skip) is the cross-check mode the stepping-equivalence
     * gate runs.
     */
    bool cycle_skip = true;
};

/** Workers runSweeps() will actually use for @p cells cells. */
unsigned effectiveJobs(unsigned jobs, size_t cells);

/**
 * Resolved config per (sweep, decorated machine label) of
 * @p sweeps, in canonical order — the "machines" block of the
 * results, also printed by siwi-run --dump-config.
 */
std::vector<MachineRecord> machineRecords(
    const std::vector<SweepSpec> &sweeps);

/**
 * Produces the result of one cell for runSweeps(): @p cell
 * indexes into @p sweep, the normalized sweep it belongs to.
 * Called concurrently from the worker threads. Sets @p cached
 * when the result was read back rather than simulated (the
 * progress line marks it).
 */
using CellStep = std::function<CellResult(
    const SweepSpec &sweep, const CellSpec &cell, bool *cached)>;

/**
 * The order runSweeps() starts @p cells, expandCells(@p sweeps), in:
 * element k is the index into @p cells of the k-th cell handed to
 * a worker. Cells are sorted by descending static work,
 * grid_blocks x block_threads x raw program length of the cell's
 * Workload::instance(), and equal estimates keep canonical order.
 * The estimate depends on the (workload, size) pair alone; it is
 * computed once per process.
 */
std::vector<size_t> dispatchOrder(const std::vector<SweepSpec> &sweeps,
                                  const std::vector<CellSpec> &cells);

/**
 * Run every cell of @p sweeps and collect the results in
 * canonical order (see expandCells()). Workers start the cells in
 * dispatchOrder(), heaviest first; thread count and execution
 * schedule cannot affect the returned value. Machine columns that
 * resolve to the same configuration are deduplicated first (with
 * a warning), so identical cells are never paid for twice. Each
 * cell is computed by @p step, or by runCell() when it is empty.
 */
Results runSweeps(const std::vector<SweepSpec> &sweeps,
                  const RunOptions &opts = {},
                  const CellStep &step = {});

/**
 * Run one (workload, config, SM count, policy) cell, the
 * primitive the benches used to call runCell() for. @p sms and
 * @p policy index the sweep's SM-count and scheduling-policy axes
 * (default: their first entries); @p cycle_skip as in RunOptions.
 */
CellResult runCell(const SweepSpec &sweep, size_t machine,
                   size_t wl, size_t sms = 0, size_t policy = 0,
                   bool cycle_skip = true);

/**
 * Set every label of @p c (all but the measurement: verified,
 * timed_out, ipc, stats, verify_msg) to runCell()'s for the same
 * arguments. A cache hit is labelled so: one blob serves every
 * cell of its resolved chip, whatever the sweep and machine names.
 */
void labelCell(const SweepSpec &sweep, size_t machine, size_t wl,
               size_t sms, size_t policy, CellResult *c);

} // namespace siwi::runner

#endif // SIWI_RUNNER_EXPERIMENT_RUNNER_HH
