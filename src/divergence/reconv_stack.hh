/**
 * @file
 * Baseline stack-based reconvergence (section 2 of the paper).
 *
 * Implements the classic SIMT divergence stack: on a divergent
 * branch the current entry becomes the reconvergence entry (its PC
 * set to the branch's reconvergence point, the immediate
 * post-dominator annotated by the compiler), and one entry per path
 * is pushed. An entry whose PC reaches its reconvergence PC is
 * popped. This subsumes Tesla's dedicated break/return support:
 * break-style branches carry the loop exit as their reconvergence
 * point and nest correctly.
 */

#ifndef SIWI_DIVERGENCE_RECONV_STACK_HH
#define SIWI_DIVERGENCE_RECONV_STACK_HH

#include <vector>

#include "common/lane_mask.hh"
#include "common/types.hh"

namespace siwi::divergence {

/**
 * Per-warp hardware divergence stack.
 *
 * Only the top entry executes; the pipeline reads pc()/mask(),
 * reports control outcomes, and the stack handles push/pop.
 */
class ReconvStack
{
  public:
    /** Stack entry: (reconvergence PC, next PC, activity mask). */
    struct Entry
    {
        Pc rpc;
        Pc pc;
        LaneMask mask;
    };

    explicit ReconvStack(LaneMask initial, Pc entry_pc = 0);

    /** Become a fresh stack (version, statistics), same storage. */
    void reset(LaneMask initial, Pc entry_pc = 0);

    /** All threads exited? */
    bool done() const { return stack_.empty(); }

    /** PC of the executing (top) entry. */
    Pc pc() const;

    /** Activity mask of the executing entry. */
    LaneMask mask() const;

    /** Non-control instruction retired: move to @p next. */
    void advance(Pc next);

    /**
     * Branch resolved. @p taken is the sub-mask (of the top mask)
     * that takes the branch; the rest falls through. @p reconv is
     * the compiler annotation (invalid_pc when none).
     * @return true when the branch diverged (pushed entries).
     */
    bool branch(Pc taken_target, Pc fallthrough, Pc reconv,
                LaneMask taken);

    /** Threads in @p m executed EXIT: remove them everywhere. */
    void exitThreads(LaneMask m);

    unsigned depth() const { return unsigned(stack_.size()); }
    unsigned maxDepth() const { return max_depth_; }
    u64 reconvergences() const { return reconvergences_; }

    /** Version counter, bumped whenever pc()/mask() change. */
    u32 version() const { return version_; }

  private:
    void popConverged();

    std::vector<Entry> stack_;
    unsigned max_depth_ = 1;
    u64 reconvergences_ = 0;
    u32 version_ = 0;
};

} // namespace siwi::divergence

#endif // SIWI_DIVERGENCE_RECONV_STACK_HH
