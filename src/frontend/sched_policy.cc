#include "frontend/sched_policy.hh"

namespace siwi::frontend {

std::optional<Cand>
SchedPolicy::select(const IssueTable &t, const SlotScan &s,
                    u64 *sync_probes) const
{
    switch (kind_) {
      case SchedPolicyKind::RoundRobin: {
        // Loose round-robin: the first ready candidate at or after
        // the cursor warp wins ("loose": a warp with nothing ready
        // is skipped rather than stalling the scheduler). A cyclic
        // scan from the cursor visits candidates in that order; it
        // probes the gated warps before its pick, or all of them
        // when nothing is ready.
        std::optional<Cand> pick;
        s.ready.forEachWrapped(cursor_, [&](WarpId w) {
            pick = Cand{w, 0};
            return true;
        });
        *sync_probes += pick ? s.gated.countWrapped(cursor_, pick->w)
                             : s.gated.count();
        return pick;
      }
      case SchedPolicyKind::GreedyThenOldest:
        // Keep issuing from the last issued warp while it has
        // something ready (intra-warp row reuse and cache
        // locality), falling back to oldest-first.
        if (last_ && s.ready.contains(*last_)) {
            *sync_probes += s.gated.count();
            return Cand{*last_, 0};
        }
        break;
      case SchedPolicyKind::MinPc: {
        // Minimum PC first, oldest-first tie-break: favors trailing
        // warp-splits, pulling divergent contexts back together —
        // the scheduling analogue of thread-frontier reconvergence.
        *sync_probes += s.gated.count();
        std::optional<Cand> best;
        Pc best_pc = invalid_pc;
        u64 best_seq = ~u64(0);
        s.ready.forEach([&](WarpId w) {
            Pc pc = t.entry[0][w]->pc;
            u64 seq = t.seq[0][w];
            if (!best || pc < best_pc ||
                (pc == best_pc && seq < best_seq)) {
                best_pc = pc;
                best_seq = seq;
                best = Cand{w, 0};
            }
        });
        return best;
      }
      case SchedPolicyKind::OldestFirst:
        break;
    }
    // The paper's policy: minimum fetch sequence (age).
    *sync_probes += s.gated.count();
    return oldestIn(t, 0, s.ready);
}

std::optional<Cand>
oldestIn(const IssueTable &t, unsigned slot, const pipeline::WarpSet &ws)
{
    std::optional<Cand> best;
    u64 best_seq = ~u64(0);
    ws.forEach([&](WarpId w) {
        if (t.seq[slot][w] < best_seq) {
            best_seq = t.seq[slot][w];
            best = Cand{w, slot};
        }
    });
    return best;
}

} // namespace siwi::frontend
