#include "divergence/reconv_stack.hh"

#include "common/log.hh"

namespace siwi::divergence {

ReconvStack::ReconvStack(LaneMask initial, Pc entry_pc)
{
    reset(initial, entry_pc);
}

void
ReconvStack::reset(LaneMask initial, Pc entry_pc)
{
    stack_.clear();
    if (initial.any())
        stack_.push_back({invalid_pc, entry_pc, initial});
    max_depth_ = 1;
    reconvergences_ = 0;
    version_ = 0;
}

Pc
ReconvStack::pc() const
{
    siwi_assert(!stack_.empty(), "pc() on empty stack");
    return stack_.back().pc;
}

LaneMask
ReconvStack::mask() const
{
    siwi_assert(!stack_.empty(), "mask() on empty stack");
    return stack_.back().mask;
}

void
ReconvStack::popConverged()
{
    while (stack_.size() > 1 &&
           (stack_.back().pc == stack_.back().rpc ||
            stack_.back().mask.none())) {
        if (stack_.back().mask.any())
            ++reconvergences_;
        stack_.pop_back();
        ++version_;
    }
}

void
ReconvStack::advance(Pc next)
{
    siwi_assert(!stack_.empty(), "advance() on empty stack");
    stack_.back().pc = next;
    ++version_;
    popConverged();
}

bool
ReconvStack::branch(Pc taken_target, Pc fallthrough, Pc reconv,
                    LaneMask taken)
{
    siwi_assert(!stack_.empty(), "branch() on empty stack");
    Entry &top = stack_.back();
    LaneMask taken_m = taken & top.mask;
    LaneMask fall_m = top.mask & ~taken;

    if (fall_m.none()) {
        advance(taken_target);
        return false;
    }
    if (taken_m.none()) {
        advance(fallthrough);
        return false;
    }

    ++version_;
    if (reconv == invalid_pc) {
        // No reconvergence point (paths exit separately): serialize
        // the two paths under the current entry's reconvergence PC.
        Pc rpc = top.rpc;
        top.pc = fallthrough;
        top.mask = fall_m;
        stack_.push_back({rpc, taken_target, taken_m});
    } else {
        // The current entry becomes the reconvergence entry.
        top.pc = reconv;
        stack_.push_back({reconv, fallthrough, fall_m});
        stack_.push_back({reconv, taken_target, taken_m});
    }
    max_depth_ = std::max(max_depth_, unsigned(stack_.size()));
    // A pushed path may already sit at the reconvergence point
    // (if-without-else: the taken target IS the join). It must wait
    // there, not run ahead.
    popConverged();
    return true;
}

void
ReconvStack::exitThreads(LaneMask m)
{
    for (Entry &e : stack_)
        e.mask &= ~m;
    ++version_;
    // Drop empty entries from the top; interior empties pop when
    // they surface.
    while (!stack_.empty() && stack_.back().mask.none()) {
        stack_.pop_back();
    }
    popConverged();
}

} // namespace siwi::divergence
