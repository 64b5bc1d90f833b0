/**
 * @file
 * LaneMask: a 64-bit activity mask over the lanes of a warp.
 *
 * Every divergence mechanism in the paper (warp-splits, predication,
 * SWI mask-inclusion lookup) manipulates these masks, so the type is
 * kept header-only and trivially copyable.
 */

#ifndef SIWI_COMMON_LANE_MASK_HH
#define SIWI_COMMON_LANE_MASK_HH

#include <bit>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace siwi {

/**
 * Fixed-width activity mask over up to 64 SIMD lanes.
 *
 * Bit i set means lane i participates. The type is a thin wrapper
 * around u64 providing the set-algebra operations the schedulers and
 * divergence units need (inclusion, disjointness, span, per-wave
 * slicing).
 */
class LaneMask
{
  public:
    constexpr LaneMask() : bits_(0) {}
    constexpr explicit LaneMask(u64 bits) : bits_(bits) {}

    /** Mask with lanes [0, n) set. */
    static constexpr LaneMask
    firstN(unsigned n)
    {
        if (n >= 64)
            return LaneMask(~u64(0));
        return LaneMask((u64(1) << n) - 1);
    }

    /** Mask with only lane i set. */
    static constexpr LaneMask
    lane(unsigned i)
    {
        return LaneMask(u64(1) << i);
    }

    constexpr u64 bits() const { return bits_; }

    constexpr bool test(unsigned i) const { return (bits_ >> i) & 1; }
    constexpr void set(unsigned i) { bits_ |= u64(1) << i; }
    constexpr void clear(unsigned i) { bits_ &= ~(u64(1) << i); }

    constexpr bool any() const { return bits_ != 0; }
    constexpr bool none() const { return bits_ == 0; }
    constexpr unsigned count() const { return std::popcount(bits_); }

    /** True when every lane of this mask is also in @p other. */
    constexpr bool
    subsetOf(LaneMask other) const
    {
        return (bits_ & ~other.bits_) == 0;
    }

    /** True when the two masks share at least one lane. */
    constexpr bool
    intersects(LaneMask other) const
    {
        return (bits_ & other.bits_) != 0;
    }

    /** Index of the lowest set lane; 64 when empty. */
    constexpr unsigned
    first() const
    {
        return std::countr_zero(bits_);
    }

    /** Index of the highest set lane; meaningless when empty. */
    constexpr unsigned
    last() const
    {
        return 63 - std::countl_zero(bits_);
    }

    /** Call @p f(lane) for every set lane, lowest first. */
    template <typename F>
    constexpr void
    forEach(F &&f) const
    {
        for (u64 b = bits_; b != 0; b &= b - 1)
            f(unsigned(std::countr_zero(b)));
    }

    /**
     * Lanes of this mask falling in wave @p w of width @p width,
     * i.e. lanes [w*width, (w+1)*width).
     */
    constexpr LaneMask
    wave(unsigned w, unsigned width) const
    {
        const LaneMask window(
            firstN(width).bits_ << (u64(w) * width));
        return LaneMask(bits_ & window.bits_);
    }

    constexpr LaneMask operator&(LaneMask o) const
    { return LaneMask(bits_ & o.bits_); }
    constexpr LaneMask operator|(LaneMask o) const
    { return LaneMask(bits_ | o.bits_); }
    constexpr LaneMask operator^(LaneMask o) const
    { return LaneMask(bits_ ^ o.bits_); }
    constexpr LaneMask operator~() const { return LaneMask(~bits_); }
    constexpr LaneMask &operator&=(LaneMask o)
    { bits_ &= o.bits_; return *this; }
    constexpr LaneMask &operator|=(LaneMask o)
    { bits_ |= o.bits_; return *this; }
    constexpr LaneMask &operator^=(LaneMask o)
    { bits_ ^= o.bits_; return *this; }

    constexpr bool operator==(const LaneMask &) const = default;

    /** Render as a lane string, lane 0 leftmost, e.g. "1100". */
    std::string
    toString(unsigned width = 64) const
    {
        std::string s;
        s.reserve(width);
        for (unsigned i = 0; i < width; ++i)
            s.push_back(test(i) ? '1' : '0');
        return s;
    }

  private:
    u64 bits_;
};

} // namespace siwi

#endif // SIWI_COMMON_LANE_MASK_HH
