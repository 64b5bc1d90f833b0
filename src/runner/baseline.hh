/**
 * @file
 * Baseline comparison: the tolerance-0 regression gate.
 *
 * Compares a freshly-produced Results file against the committed
 * bench/baseline.json cell by cell, on IPC, with a relative
 * tolerance. The simulator is deterministic, so the gate runs at
 * tolerance 0: any IPC change, in either direction, and any cell
 * missing from or added to the baseline fails it. A change that
 * moves timing on purpose regenerates the baseline via
 * scripts/update_baseline.sh.
 */

#ifndef SIWI_RUNNER_BASELINE_HH
#define SIWI_RUNNER_BASELINE_HH

#include <string>
#include <vector>

#include "runner/results.hh"

namespace siwi::runner {

/** IPC delta of one cell present in both files. */
struct CellDelta
{
    std::string sweep;
    std::string machine;
    std::string workload;
    double baseline_ipc = 0.0;
    double candidate_ipc = 0.0;
    /** (candidate - baseline) / baseline; 0 when baseline is 0. */
    double relative = 0.0;
};

/** Full comparison outcome. */
struct CompareReport
{
    double tolerance = 0.0; //!< relative, e.g. 0.02 for 2%
    std::vector<CellDelta> deltas;
    /** Cells beyond tolerance, worst regression first. */
    std::vector<CellDelta> regressions;
    /** Improvements beyond tolerance, largest first. */
    std::vector<CellDelta> improvements;
    /** Baseline cells absent from the candidate. */
    std::vector<std::string> missing;
    /** Candidate cells absent from the baseline. */
    std::vector<std::string> added;
    /** Candidate cells that failed functional verification. */
    std::vector<std::string> unverified;
    /** Candidate cells truncated at the cycle cap. */
    std::vector<std::string> timed_out;

    /** Gate verdict: no IPC change beyond tolerance either way,
     *  the same cells in both files, all candidate cells verified
     *  and none timed out. */
    bool pass() const
    {
        return regressions.empty() && improvements.empty() &&
               missing.empty() && added.empty() &&
               unverified.empty() && timed_out.empty();
    }

    /** Human-readable report for the CI log. */
    std::string format() const;
};

/**
 * Compare @p candidate against @p baseline with @p tolerance
 * (relative IPC, e.g. 0.02 = 2%).
 */
CompareReport compareResults(const Results &baseline,
                             const Results &candidate,
                             double tolerance);

} // namespace siwi::runner

#endif // SIWI_RUNNER_BASELINE_HH
