#include "runner/table.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <vector>

#include "common/log.hh"
#include "runner/metrics.hh"

namespace siwi::runner {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 2, 3)))
#endif
    ;

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min(size_t(n), sizeof(buf) - 1));
}

/** One machine's cells of a sweep, in workload order. */
struct Column
{
    std::string machine;
    std::vector<double> ipc;
    std::vector<bool> timed_out;
};

} // namespace

std::string
formatSweepTable(const Results &results, const std::string &sweep)
{
    std::vector<std::string> rows;
    std::vector<bool> row_excluded;
    std::vector<Column> cols;
    for (const CellResult *c : results.sweepCells(sweep)) {
        if (std::find(rows.begin(), rows.end(), c->workload) ==
            rows.end()) {
            rows.push_back(c->workload);
            row_excluded.push_back(c->excluded_from_means);
        }
        auto col = std::find_if(cols.begin(), cols.end(),
                                [&](const Column &k) {
                                    return k.machine == c->machine;
                                });
        if (col == cols.end())
            col = cols.insert(cols.end(), Column{c->machine, {}, {}});
        col->ipc.push_back(c->ipc);
        col->timed_out.push_back(c->timed_out);
    }
    for (const Column &col : cols) {
        siwi_assert(col.ipc.size() == rows.size(), "table: column ",
                    col.machine, " with ", col.ipc.size(),
                    " values vs ", rows.size(), " rows");
    }

    std::string out;
    appendf(out, "%-22s", "");
    for (const Column &col : cols)
        appendf(out, "%12s", col.machine.c_str());
    out += '\n';

    bool any_timed_out = false;
    for (size_t r = 0; r < rows.size(); ++r) {
        appendf(out, "%-22s", rows[r].c_str());
        for (const Column &col : cols) {
            if (col.timed_out[r]) {
                // A truncated run has no meaningful IPC; never
                // print a plausible-looking number for it.
                appendf(out, "%12s", "T/O");
                any_timed_out = true;
            } else {
                appendf(out, "%12.2f", col.ipc[r]);
            }
        }
        out += '\n';
    }

    // Geomean over non-excluded rows (paper: TMD not counted);
    // timed-out cells are dropped from their column's mean.
    std::vector<double> gmeans;
    for (const Column &col : cols) {
        std::vector<bool> excluded;
        for (size_t r = 0; r < rows.size(); ++r)
            excluded.push_back(row_excluded[r] || col.timed_out[r]);
        gmeans.push_back(geomean(excludeFromMeans(col.ipc, excluded)));
    }
    appendf(out, "%-22s", "Gmean");
    for (double g : gmeans)
        appendf(out, "%12.2f", g);
    out += '\n';

    if (gmeans.size() > 1 && gmeans[0] > 0.0) {
        appendf(out, "%-22s",
                ("Speedup vs " + cols[0].machine).c_str());
        for (double g : gmeans)
            appendf(out, "%12.3f", g / gmeans[0]);
        out += '\n';
    }
    if (any_timed_out)
        out += "(T/O = timed out at the cycle cap; excluded from "
               "Gmean)\n";
    return out;
}

} // namespace siwi::runner
