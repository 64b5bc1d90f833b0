#include "core/stats.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace siwi::core {

std::string
SimStats::summary() const
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(2);
    os << "cycles:              " << cycles
       << (timed_out ? "  (TIMED OUT: cycle limit hit)" : "")
       << "\n";
    if (num_sms > 1)
        os << "SMs:                 " << num_sms << "\n";
    os << "instructions:        " << instructions << "\n"
       << "thread instructions: " << thread_instructions << "\n"
       << "IPC:                 " << ipc() << "\n"
       << "issues prim/sec:     " << primary_issues << " / "
       << secondary_issues << " (row-share " << row_share_issues
       << ", fallback " << fallback_issues << ")\n"
       << "conflicts squashed:  " << conflicts_squashed
       << ", stale cascade picks: " << cascade_stale << "\n"
       << "divergences:         " << branch_divergences
       << " (splits " << warp_splits << ", mem-splits "
       << memory_splits << ", merges " << merges << ")\n"
       << "sync suspensions:    " << sync_suspensions << "\n"
       << "L1:                  " << l1_hits << " hits / "
       << l1_misses << " misses (" << std::setprecision(1)
       << 100.0 * l1HitRate() << "%)\n"
       << std::setprecision(2);
    if (l2_hits + l2_misses) {
        os << "L2:                  " << l2_hits << " hits / "
           << l2_misses << " misses\n";
    }
    os << "DRAM:                " << dram_transactions
       << " transactions, " << dram_bytes << " bytes\n"
       << "work:                " << blocks_launched << " blocks, "
       << threads_launched << " threads\n";
    for (const UnitStats &u : units) {
        double util =
            cycles ? 100.0 * double(u.busy_cycles) / double(cycles)
                   : 0.0;
        os << "  unit " << std::left << std::setw(5) << u.name
           << std::right << " issues " << std::setw(10) << u.issues
           << "  busy " << std::setw(5) << std::setprecision(1)
           << util << "%  thread-insts " << u.thread_instructions
           << "\n";
    }
    for (size_t i = 0; i < per_sm.size(); ++i) {
        const SimStats &s = per_sm[i];
        os << "  SM" << i << ": ipc " << std::setprecision(2)
           << s.ipc() << "  cycles " << s.cycles << "  blocks "
           << s.blocks_launched << "  thread-insts "
           << s.thread_instructions << "\n";
    }
    return os.str();
}

SimStats
SimStats::aggregate(const std::vector<SimStats> &sms)
{
    SimStats agg;
    for (const SimStats &s : sms) {
        agg.cycles = std::max(agg.cycles, s.cycles);
        agg.timed_out |= s.timed_out;
        for (const CounterField<SimStats> &f :
             counterFields<SimStats>())
            agg.*f.member += s.*f.member;
        agg.max_stack_depth =
            std::max(agg.max_stack_depth, s.max_stack_depth);
        agg.max_live_contexts =
            std::max(agg.max_live_contexts, s.max_live_contexts);
        for (const UnitStats &u : s.units) {
            auto it = std::find_if(
                agg.units.begin(), agg.units.end(),
                [&](const UnitStats &a) {
                    return a.name == u.name;
                });
            if (it == agg.units.end()) {
                agg.units.push_back(u);
            } else {
                for (const CounterField<UnitStats> &f :
                     counterFields<UnitStats>())
                    (*it).*f.member += u.*f.member;
            }
        }
    }
    agg.num_sms = unsigned(sms.size());
    agg.per_sm = sms;
    // The generic loop summed the per-SM means, which is
    // meaningless; recompute from the summed integral so the
    // aggregate reads as mean runnable warps chip-wide.
    agg.avg_runnable_warps_x10 =
        agg.cycles ? (10 * agg.runnable_warp_cycles) / agg.cycles
                   : 0;
    return agg;
}

} // namespace siwi::core
