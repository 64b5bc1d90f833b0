#include "frontend/sched_policy.hh"

#include "common/log.hh"

namespace siwi::frontend {

namespace {

/** The paper's policy: minimum fetch sequence (age). */
class OldestFirstPolicy final : public SchedPolicy
{
  public:
    SchedPolicyKind kind() const override
    {
        return SchedPolicyKind::OldestFirst;
    }

    std::optional<Cand> select(const IssueTable &t, const SlotScan &s,
                               u64 *sync_probes) const override
    {
        *sync_probes += s.gated.count();
        return oldestIn(t, 0, s.ready);
    }
};

/**
 * Loose round-robin: the first ready candidate at or after the
 * cursor warp wins; the cursor advances past the issued warp.
 * "Loose" because a warp with nothing ready is skipped rather
 * than stalling the scheduler.
 */
class RoundRobinPolicy final : public SchedPolicy
{
  public:
    explicit RoundRobinPolicy(unsigned num_warps)
        : num_warps_(num_warps)
    {
    }

    SchedPolicyKind kind() const override
    {
        return SchedPolicyKind::RoundRobin;
    }

    std::optional<Cand> select(const IssueTable &, const SlotScan &s,
                               u64 *sync_probes) const override
    {
        // A cyclic scan from the cursor visits candidates in
        // round-robin order; it probes the gated warps before its
        // pick, or all of them when nothing is ready.
        std::optional<Cand> pick;
        s.ready.forEachWrapped(cursor_, [&](WarpId w) {
            pick = Cand{w, 0};
            return true;
        });
        *sync_probes += pick ? s.gated.countWrapped(cursor_, pick->w)
                             : s.gated.count();
        return pick;
    }

    void notifyIssued(const Cand &c) override
    {
        cursor_ = WarpId((c.w + 1) % num_warps_);
    }

  private:
    unsigned num_warps_;
    WarpId cursor_ = 0;
};

/**
 * Greedy-then-oldest: keep issuing from the last issued warp
 * while it has something ready (exploits intra-warp row reuse and
 * cache locality), falling back to oldest-first.
 */
class GreedyThenOldestPolicy final : public SchedPolicy
{
  public:
    SchedPolicyKind kind() const override
    {
        return SchedPolicyKind::GreedyThenOldest;
    }

    std::optional<Cand> select(const IssueTable &t, const SlotScan &s,
                               u64 *sync_probes) const override
    {
        *sync_probes += s.gated.count();
        if (have_last_ && s.ready.contains(last_warp_))
            return Cand{last_warp_, 0};
        return oldestIn(t, 0, s.ready);
    }

    void notifyIssued(const Cand &c) override
    {
        have_last_ = true;
        last_warp_ = c.w;
    }

  private:
    bool have_last_ = false;
    WarpId last_warp_ = 0;
};

/**
 * Minimum PC first (oldest-first tie-break): favors trailing
 * warp-splits, pulling divergent contexts back together — the
 * scheduling analogue of thread-frontier reconvergence.
 */
class MinPcPolicy final : public SchedPolicy
{
  public:
    SchedPolicyKind kind() const override
    {
        return SchedPolicyKind::MinPc;
    }

    std::optional<Cand> select(const IssueTable &t, const SlotScan &s,
                               u64 *sync_probes) const override
    {
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
};

} // namespace

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

std::unique_ptr<SchedPolicy>
makeSchedPolicy(SchedPolicyKind kind, unsigned num_warps)
{
    switch (kind) {
      case SchedPolicyKind::OldestFirst:
        return std::make_unique<OldestFirstPolicy>();
      case SchedPolicyKind::RoundRobin:
        return std::make_unique<RoundRobinPolicy>(num_warps);
      case SchedPolicyKind::GreedyThenOldest:
        return std::make_unique<GreedyThenOldestPolicy>();
      case SchedPolicyKind::MinPc:
        return std::make_unique<MinPcPolicy>();
    }
    panic("unknown scheduling policy");
}

} // namespace siwi::frontend
