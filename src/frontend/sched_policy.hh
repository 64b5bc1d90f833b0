/**
 * @file
 * Primary-scheduler selection policies.
 *
 * The paper's machines all select their primary instruction
 * oldest-first (section 4: "the primary scheduler still selects
 * the oldest ready instruction"), but the policy is orthogonal to
 * the front-end structure: any ordering of the ready primary
 * candidates yields a working machine. Besides the paper's
 * oldest-first, SchedPolicy (one class that switches on its kind)
 * provides the classic alternatives of the GPU-scheduling
 * literature: loose round-robin (fairness), greedy-then-oldest
 * (GTO: stick with the last warp to exploit intra-warp locality),
 * and minimum-PC (favor trailing warp-splits, which accelerates
 * reconvergence on thread-frontier machines).
 */

#ifndef SIWI_FRONTEND_SCHED_POLICY_HH
#define SIWI_FRONTEND_SCHED_POLICY_HH

#include <optional>

#include "common/types.hh"
#include "frontend/issue_table.hh"

namespace siwi::frontend {

/** The selectable primary-scheduler policies. */
enum class SchedPolicyKind {
    OldestFirst,      //!< minimum fetch sequence (the paper)
    RoundRobin,       //!< loose round-robin over warps
    GreedyThenOldest, //!< GTO: last warp first, then oldest
    MinPc,            //!< minimum PC, oldest-first tie-break
};

/** Policy names, index == SchedPolicyKind value. */
inline constexpr const char *sched_policy_names[] = {
    "oldest",
    "rr",
    "gto",
    "minpc",
};

/** CLI and config name of a policy. */
inline const char *
schedPolicyName(SchedPolicyKind kind)
{
    return sched_policy_names[size_t(kind)];
}

/**
 * A primary scheduler's ordering of its ready candidates.
 *
 * select() picks the best of a slot-0 scan's ready warps (CPC1
 * entries that may issue), or nullopt. The state two kinds keep
 * (the round-robin cursor, GTO's last warp) advances through
 * notifyIssued(), which the front-end calls only when the pick
 * actually issues — a selection denied by a structural stall
 * must not advance the cursor past the stalled warp. Pooled
 * machines hold one policy per pool.
 */
class SchedPolicy
{
  public:
    SchedPolicy(SchedPolicyKind kind, unsigned num_warps)
        : kind_(kind), num_warps_(num_warps)
    {
    }

    /**
     * Pick the best warp of @p s.ready (rows of @p t, slot 0), or
     * nullopt, and add to @p sync_probes the warps of @p s.gated
     * that a probe of each candidate in this policy's order visits:
     * all of them, except that round-robin stops at its pick.
     */
    std::optional<Cand> select(const IssueTable &t, const SlotScan &s,
                               u64 *sync_probes) const;

    /** @p c issued: advance the RR cursor and GTO's last warp. */
    void notifyIssued(const Cand &c)
    {
        cursor_ = WarpId((c.w + 1) % num_warps_);
        last_ = c.w;
    }

  private:
    SchedPolicyKind kind_;
    unsigned num_warps_;
    WarpId cursor_ = 0;          //!< round-robin: first warp tried
    std::optional<WarpId> last_; //!< GTO: last warp issued
};

/**
 * Oldest (minimum fetch sequence) member of @p ws in slot @p slot
 * of @p t, or nullopt when @p ws is empty.
 */
std::optional<Cand> oldestIn(const IssueTable &t, unsigned slot,
                             const pipeline::WarpSet &ws);

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_SCHED_POLICY_HH
