/**
 * @file
 * MemoryImage tests: the functional store under every simulated
 * load and store, and the workloads' host-side setup and readback.
 */

#include <vector>

#include <gtest/gtest.h>

#include "mem/memory_image.hh"

namespace siwi::mem {
namespace {

/** One access per lane: lane l at @p base + 4 * l. */
std::vector<LaneAccess>
unitStride(unsigned lanes, Addr base)
{
    std::vector<LaneAccess> v;
    for (unsigned l = 0; l < lanes; ++l)
        v.push_back({l, base + Addr(l) * 4});
    return v;
}

TEST(MemoryImage, UnwrittenWordsReadZero)
{
    MemoryImage m;
    EXPECT_EQ(m.read32(0), 0u);
    EXPECT_EQ(m.read32(0x12345678), 0u);
    EXPECT_EQ(m.readF32(0x40), 0.0f);

    // A written word's neighbours, in its page and the next one.
    m.write32(0x1000, 7);
    EXPECT_EQ(m.read32(0x1004), 0u);
    EXPECT_EQ(m.read32(0x0ffc), 0u);
    EXPECT_EQ(m.readWords(0x0ff8, 4), (std::vector<u32>{0, 0, 7, 0}));

    // A load overwrites every active lane, with zero where unwritten.
    std::vector<u32> row(4, 99);
    m.gather(unitStride(4, 0x0ff8), LaneMask::firstN(4), row.data());
    EXPECT_EQ(row, (std::vector<u32>{0, 0, 7, 0}));
}

TEST(MemoryImage, AccessesStraddlingAPageBoundary)
{
    // Pages are 4 KiB: words 0x1ff0..0x200c span two of them.
    MemoryImage m;
    for (u32 i = 0; i < 8; ++i)
        m.write32(0x1ff0 + Addr(i) * 4, 100 + i);
    EXPECT_EQ(m.readWords(0x1ff0, 8),
              (std::vector<u32>{100, 101, 102, 103, 104, 105, 106, 107}));

    // The same through a warp's store and load.
    const auto acc = unitStride(8, 0x2ff0);
    const std::vector<u32> src = {1, 2, 3, 4, 5, 6, 7, 8};
    m.scatter(acc, LaneMask::firstN(8), src.data());
    EXPECT_EQ(m.read32(0x2ffc), 4u);
    EXPECT_EQ(m.read32(0x3000), 5u);
    std::vector<u32> dst(8, 0);
    m.gather(acc, LaneMask::firstN(8), dst.data());
    EXPECT_EQ(dst, src);

    // Lanes outside the mask neither store nor load, on either page.
    const std::vector<u32> other = {9, 9, 9, 9, 9, 9, 9, 9};
    m.scatter(acc, LaneMask(0b1000'1000), other.data());
    EXPECT_EQ(m.readWords(0x2ff0, 8),
              (std::vector<u32>{1, 2, 3, 9, 5, 6, 7, 9}));
    std::vector<u32> masked(8, 0);
    m.gather(acc, LaneMask(0b0001'0001), masked.data());
    EXPECT_EQ(masked, (std::vector<u32>{1, 0, 0, 0, 5, 0, 0, 0}));
}

TEST(MemoryImage, AddressesAtTheTopOfTheSpace)
{
    // A u32 base register plus a negative immediate: 0 + (-4).
    const Addr top = Addr(u32(0)) + Addr(i64(-4));
    ASSERT_EQ(top, 0xffff'ffff'ffff'fffcu);

    MemoryImage m;
    m.write32(top, 0xdeadbeef);
    EXPECT_EQ(m.read32(top), 0xdeadbeefu);
    EXPECT_EQ(m.read32(top - 4), 0u);
    // No aliasing with the bottom page or the 32-bit truncation.
    EXPECT_EQ(m.read32(0), 0u);
    EXPECT_EQ(m.read32(0xffff'fffc), 0u);
    EXPECT_EQ(m.read32(0xffc), 0u);

    const std::vector<LaneAccess> acc = {{0, top - 4}, {1, top}, {2, 0}};
    const std::vector<u32> src = {11, 12, 13};
    m.scatter(acc, LaneMask::firstN(3), src.data());
    std::vector<u32> dst(3, 0);
    m.gather(acc, LaneMask::firstN(3), dst.data());
    EXPECT_EQ(dst, src);
    EXPECT_EQ(m.read32(top), 12u);
    EXPECT_EQ(m.read32(0), 13u);
}

TEST(MemoryImage, ImagesAreIndependent)
{
    MemoryImage a;
    MemoryImage b;
    a.write32(0x1000, 1);
    b.write32(0x1000, 2);
    b.write32(0x5000, 3);
    EXPECT_EQ(a.read32(0x1000), 1u);
    EXPECT_EQ(a.read32(0x5000), 0u);
    EXPECT_EQ(b.read32(0x1000), 2u);

    // A copy owns its own pages.
    MemoryImage c = a;
    c.write32(0x1000, 4);
    c.write32(0x9000, 5);
    EXPECT_EQ(a.read32(0x1000), 1u);
    EXPECT_EQ(a.read32(0x9000), 0u);
    EXPECT_EQ(c.read32(0x1000), 4u);
}

TEST(MemoryImageDeathTest, UnalignedAccessPanics)
{
    MemoryImage m;
    EXPECT_DEATH(m.read32(0x1002), "unaligned 32-bit access at 0x1002");
    EXPECT_DEATH(m.write32(0x1001, 1), "unaligned 32-bit access");

    // The warp paths check every active lane, not just the first.
    const std::vector<LaneAccess> acc = {{0, 0x2000}, {1, 0x2006}};
    u32 row[2] = {0, 0};
    EXPECT_DEATH(m.gather(acc, LaneMask::firstN(2), row),
                 "unaligned 32-bit access at 0x2006");
    EXPECT_DEATH(m.scatter(acc, LaneMask::firstN(2), row),
                 "unaligned 32-bit access at 0x2006");
}

} // namespace
} // namespace siwi::mem
