/**
 * @file
 * Architectural state of the threads mapped onto one hardware warp.
 */

#ifndef SIWI_EXEC_WARP_STATE_HH
#define SIWI_EXEC_WARP_STATE_HH

#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace siwi::exec {

/** Identity of the thread occupying a lane (for S2R). */
struct ThreadInfo
{
    i32 tid = 0;    //!< thread index within its block
    i32 ntid = 0;   //!< threads per block
    i32 ctaid = 0;  //!< block index
    i32 nctaid = 0; //!< blocks in grid
    i32 gtid = 0;   //!< global thread index
    i32 lane = 0;   //!< physical lane (post lane-shuffle)
    i32 wid = 0;    //!< hardware warp slot
    bool valid = false;
};

/**
 * Register files and thread identities of one warp, indexed by
 * physical lane.
 *
 * The file holds only the registers the running program uses (its
 * Program::regsUsed()), register-major: register r of every lane is
 * one contiguous row of width() words, so the functional unit walks
 * a row per operand. Values are raw 32-bit words; float semantics
 * are applied by the functional unit via bit casts.
 */
class WarpState
{
  public:
    /** A warp of @p width lanes with registers r0..r(@p regs - 1). */
    WarpState(unsigned width, unsigned regs);

    unsigned width() const { return width_; }
    unsigned regs() const { return regs_; }

    u32
    reg(unsigned lane, RegIdx r) const
    {
        siwi_assert(lane < width_, "bad lane ", lane);
        return row(r)[lane];
    }

    void
    setReg(unsigned lane, RegIdx r, u32 value)
    {
        siwi_assert(lane < width_, "bad lane ", lane);
        row(r)[lane] = value;
    }

    /** Register @p r of every lane, indexed by lane. */
    u32 *
    row(RegIdx r)
    {
        siwi_assert(r < regs_, "bad reg access: r", unsigned(r),
                    " of a ", regs_, "-register file");
        return &file_[r * width_];
    }

    const u32 *
    row(RegIdx r) const
    {
        siwi_assert(r < regs_, "bad reg access: r", unsigned(r),
                    " of a ", regs_, "-register file");
        return &file_[r * width_];
    }

    ThreadInfo &info(unsigned lane);
    const ThreadInfo &info(unsigned lane) const;

    /** Reset to empty (no valid threads, zeroed registers). */
    void clear();

  private:
    unsigned width_;
    unsigned regs_;
    std::vector<u32> file_; //!< register-major: r * width_ + lane
    std::vector<ThreadInfo> info_;
};

} // namespace siwi::exec

#endif // SIWI_EXEC_WARP_STATE_HH
