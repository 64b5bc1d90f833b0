#include "frontend/sched_policy.hh"

#include "common/log.hh"
#include "frontend/front_end.hh"

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

    std::optional<Cand> select(const FrontEndHost &host,
                               std::span<const Cand> cands,
                               bool check_group) const override
    {
        std::optional<Cand> best;
        u64 best_seq = ~u64(0);
        for (const Cand &c : cands) {
            if (!host.ready(c.w, c.slot, check_group))
                continue;
            const pipeline::IBufEntry *e =
                host.entryFor(c.w, c.slot);
            if (e->seq < best_seq) {
                best_seq = e->seq;
                best = c;
            }
        }
        return best;
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

    std::optional<Cand> select(const FrontEndHost &host,
                               std::span<const Cand> cands,
                               bool check_group) const override
    {
        // The domain is warp-ordered, so scanning it twice —
        // first the tail at/after the cursor, then the wrapped
        // head — visits candidates in round-robin order.
        for (int pass = 0; pass < 2; ++pass) {
            for (const Cand &c : cands) {
                bool tail = c.w >= cursor_;
                if ((pass == 0) != tail)
                    continue;
                if (host.ready(c.w, c.slot, check_group))
                    return c;
            }
        }
        return std::nullopt;
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

    std::optional<Cand> select(const FrontEndHost &host,
                               std::span<const Cand> cands,
                               bool check_group) const override
    {
        std::optional<Cand> best;
        u64 best_seq = ~u64(0);
        std::optional<Cand> greedy;
        u64 greedy_seq = ~u64(0);
        for (const Cand &c : cands) {
            if (!host.ready(c.w, c.slot, check_group))
                continue;
            u64 seq = host.entryFor(c.w, c.slot)->seq;
            if (have_last_ && c.w == last_warp_ &&
                seq < greedy_seq) {
                greedy_seq = seq;
                greedy = c;
            }
            if (seq < best_seq) {
                best_seq = seq;
                best = c;
            }
        }
        return greedy ? greedy : best;
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

    std::optional<Cand> select(const FrontEndHost &host,
                               std::span<const Cand> cands,
                               bool check_group) const override
    {
        std::optional<Cand> best;
        Pc best_pc = invalid_pc;
        u64 best_seq = ~u64(0);
        for (const Cand &c : cands) {
            if (!host.ready(c.w, c.slot, check_group))
                continue;
            const pipeline::IBufEntry *e =
                host.entryFor(c.w, c.slot);
            if (!best || e->pc < best_pc ||
                (e->pc == best_pc && e->seq < best_seq)) {
                best_pc = e->pc;
                best_seq = e->seq;
                best = c;
            }
        }
        return best;
    }
};

} // namespace

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
