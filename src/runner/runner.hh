/**
 * @file
 * Umbrella header: the experiment-runner subsystem.
 *
 * Typical use:
 * @code
 *   #include "runner/runner.hh"
 *
 *   using namespace siwi;
 *   runner::MachineRegistry reg;
 *   std::vector<runner::SweepSpec> sweeps;
 *   std::string label, err;
 *   if (!runner::loadSpecFile("bench/specs/fig7.json", &reg,
 *                             &sweeps, &label, &err))
 *       fatal(err);
 *   runner::RunOptions opts;
 *   opts.jobs = 8;
 *   opts.suite_label = label;
 *   runner::Results res = runner::runSweeps(sweeps, opts);
 *   std::fputs(runner::formatSweepTable(res, "fig7_regular")
 *                  .c_str(), stdout);
 *   res.save("fig7.json", nullptr);
 * @endcode
 */

#ifndef SIWI_RUNNER_RUNNER_HH
#define SIWI_RUNNER_RUNNER_HH

#include "runner/baseline.hh"
#include "runner/cli.hh"
#include "runner/experiment_runner.hh"
#include "runner/metrics.hh"
#include "runner/results.hh"
#include "runner/spec.hh"
#include "runner/sweep.hh"
#include "runner/table.hh"

#endif // SIWI_RUNNER_RUNNER_HH
