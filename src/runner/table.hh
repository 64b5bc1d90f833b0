/**
 * @file
 * Text table rendering for sweep results, shared by siwi-run and
 * the tests.
 */

#ifndef SIWI_RUNNER_TABLE_HH
#define SIWI_RUNNER_TABLE_HH

#include <string>

#include "runner/results.hh"

namespace siwi::runner {

/**
 * IPC table of one sweep of @p results: rows are workloads,
 * columns machines, both in stored order. A Gmean row follows,
 * honoring the paper's TMD-exclusion rule; a timed-out cell
 * renders "T/O" instead of its number (a truncated run has no
 * meaningful IPC) and is dropped from its column's Gmean. When
 * the sweep has more than one column and the first column's Gmean
 * is positive, a last row gives each column's Gmean over the first
 * column's: every spec lists its reference machine first, so this
 * is the figure's speedup row.
 */
std::string formatSweepTable(const Results &results,
                             const std::string &sweep);

} // namespace siwi::runner

#endif // SIWI_RUNNER_TABLE_HH
