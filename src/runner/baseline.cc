#include "runner/baseline.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace siwi::runner {

namespace {

std::string
cellKey(const CellResult &c)
{
    return c.sweep + " / " + c.machine + " / " + c.workload;
}

} // namespace

CompareReport
compareResults(const Results &baseline, const Results &candidate,
               double tolerance)
{
    CompareReport rep;
    rep.tolerance = tolerance;

    for (const CellResult &b : baseline.cells) {
        const CellResult *c =
            candidate.find(b.sweep, b.machine, b.workload);
        if (!c) {
            rep.missing.push_back(cellKey(b));
            continue;
        }
        CellDelta d;
        d.sweep = b.sweep;
        d.machine = b.machine;
        d.workload = b.workload;
        d.baseline_ipc = b.ipc;
        d.candidate_ipc = c->ipc;
        d.relative = b.ipc != 0.0
                         ? (c->ipc - b.ipc) / b.ipc
                         : (c->ipc != 0.0 ? 1.0 : 0.0);
        rep.deltas.push_back(d);
        if (d.relative < -tolerance)
            rep.regressions.push_back(d);
        else if (d.relative > tolerance)
            rep.improvements.push_back(d);
    }

    for (const CellResult &c : candidate.cells) {
        if (!baseline.find(c.sweep, c.machine, c.workload))
            rep.added.push_back(cellKey(c));
        if (!c.verified)
            rep.unverified.push_back(cellKey(c));
        if (c.timed_out)
            rep.timed_out.push_back(cellKey(c));
    }

    auto worst_first = [](const CellDelta &a, const CellDelta &b) {
        return a.relative < b.relative;
    };
    std::sort(rep.regressions.begin(), rep.regressions.end(),
              worst_first);
    std::sort(rep.improvements.begin(), rep.improvements.end(),
              [](const CellDelta &a, const CellDelta &b) {
                  return a.relative > b.relative;
              });
    return rep;
}

std::string
CompareReport::format() const
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(2);

    os << "baseline comparison: " << deltas.size()
       << " cells compared, tolerance " << 100.0 * tolerance
       << "%\n";

    auto list = [&](const char *title,
                    const std::vector<CellDelta> &v) {
        if (v.empty())
            return;
        os << title << " (" << v.size() << "):\n";
        for (const CellDelta &d : v) {
            os << "  " << d.sweep << " / " << d.machine << " / "
               << d.workload << ": " << d.baseline_ipc << " -> "
               << d.candidate_ipc << " ("
               << (d.relative >= 0 ? "+" : "")
               << 100.0 * d.relative << "%)\n";
        }
    };
    list("REGRESSIONS beyond tolerance", regressions);
    list("IMPROVEMENTS beyond tolerance", improvements);

    auto names = [&](const char *title,
                     const std::vector<std::string> &v) {
        if (v.empty())
            return;
        os << title << " (" << v.size() << "):\n";
        for (const std::string &s : v)
            os << "  " << s << "\n";
    };
    names("MISSING cells (in baseline, not in candidate)",
          missing);
    names("ADDED cells (in candidate, not in baseline)", added);
    names("UNVERIFIED candidate cells", unverified);
    names("TIMED-OUT candidate cells (cycle cap hit)", timed_out);

    os << (pass() ? "PASS" : "FAIL") << "\n";
    return os.str();
}

} // namespace siwi::runner
