#include "exec/warp_state.hh"

#include <algorithm>

namespace siwi::exec {

WarpState::WarpState(unsigned width, unsigned regs)
    : width_(width), regs_(regs), file_(size_t(regs) * width),
      info_(width)
{
    siwi_assert(width >= 1 && width <= max_warp_width,
                "bad warp width");
    siwi_assert(regs <= num_arch_regs, "too many registers");
}

ThreadInfo &
WarpState::info(unsigned lane)
{
    siwi_assert(lane < width_, "bad lane");
    return info_[lane];
}

const ThreadInfo &
WarpState::info(unsigned lane) const
{
    siwi_assert(lane < width_, "bad lane");
    return info_[lane];
}

void
WarpState::clear()
{
    std::fill(file_.begin(), file_.end(), 0);
    std::fill(info_.begin(), info_.end(), ThreadInfo{});
}

} // namespace siwi::exec
