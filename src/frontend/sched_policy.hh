/**
 * @file
 * Primary-scheduler selection policies.
 *
 * The paper's machines all select their primary instruction
 * oldest-first (section 4: "the primary scheduler still selects
 * the oldest ready instruction"), but the policy is orthogonal to
 * the front-end structure: any ordering of the ready primary
 * candidates yields a working machine. SchedPolicy is that
 * strategy seam. Besides the paper's oldest-first it provides the
 * classic alternatives of the GPU-scheduling literature: loose
 * round-robin (fairness), greedy-then-oldest (GTO: stick with the
 * last warp to exploit intra-warp locality), and minimum-PC
 * (favor trailing warp-splits, which accelerates reconvergence on
 * thread-frontier machines).
 */

#ifndef SIWI_FRONTEND_SCHED_POLICY_HH
#define SIWI_FRONTEND_SCHED_POLICY_HH

#include <memory>
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
 * Primary-candidate ordering strategy.
 *
 * select() picks the best of a slot-0 scan's ready warps (CPC1
 * entries that may issue), or nullopt. Policies with internal state
 * (the round-robin cursor, GTO's last warp) advance it through
 * notifyIssued(), which the front-end calls only when the pick
 * actually issues — a selection denied by a structural stall
 * must not advance the cursor past the stalled warp. Pooled
 * machines get one policy instance per pool.
 */
class SchedPolicy
{
  public:
    virtual ~SchedPolicy() = default;

    virtual SchedPolicyKind kind() const = 0;

    /**
     * Pick the best warp of @p s.ready (rows of @p t, slot 0), or
     * nullopt, and add to @p sync_probes the warps of @p s.gated
     * that a probe of each candidate in this policy's order visits:
     * all of them, except that round-robin stops at its pick.
     */
    virtual std::optional<Cand> select(const IssueTable &t,
                                       const SlotScan &s,
                                       u64 *sync_probes) const = 0;

    /** Candidate @p c issued; advance any cursor state. */
    virtual void notifyIssued(const Cand &c) { (void)c; }

  protected:
    SchedPolicy() = default;
};

/**
 * Oldest (minimum fetch sequence) member of @p ws in slot @p slot
 * of @p t, or nullopt when @p ws is empty.
 */
std::optional<Cand> oldestIn(const IssueTable &t, unsigned slot,
                             const pipeline::WarpSet &ws);

/** Build the policy strategy for @p kind. */
std::unique_ptr<SchedPolicy> makeSchedPolicy(SchedPolicyKind kind,
                                             unsigned num_warps);

} // namespace siwi::frontend

#endif // SIWI_FRONTEND_SCHED_POLICY_HH
