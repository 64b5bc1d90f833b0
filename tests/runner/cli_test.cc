/**
 * @file
 * Tests for the consumable argument list used by siwi-run and the
 * benches.
 */

#include <gtest/gtest.h>

#include "runner/cli.hh"

using namespace siwi;
using namespace siwi::runner;

namespace {

ArgList
makeArgs(std::vector<std::string> argv)
{
    std::vector<char *> ptrs = {const_cast<char *>("prog")};
    for (std::string &a : argv)
        ptrs.push_back(a.data());
    return ArgList(int(ptrs.size()), ptrs.data());
}

TEST(ArgList, FlagsAndOptionsConsume)
{
    ArgList args = makeArgs({"--x", "--json", "out.json", "tail"});
    EXPECT_TRUE(args.flag("--x"));
    EXPECT_FALSE(args.flag("--x")); // consumed
    std::string v;
    ASSERT_TRUE(args.option("--json", &v));
    EXPECT_EQ(v, "out.json");
    EXPECT_EQ(args.remaining(),
              (std::vector<std::string>{"tail"}));
    EXPECT_TRUE(args.errors().empty());
}

TEST(ArgList, RepeatedOptionsCollect)
{
    ArgList args =
        makeArgs({"--m", "a", "--other", "--m", "b"});
    EXPECT_EQ(args.options("--m"),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_TRUE(args.flag("--other"));
    EXPECT_TRUE(args.remaining().empty());
}

TEST(ArgList, MissingValueIsAnError)
{
    ArgList args = makeArgs({"--json"});
    std::string v = "untouched";
    EXPECT_FALSE(args.option("--json", &v));
    EXPECT_EQ(v, "untouched");
    ASSERT_EQ(args.errors().size(), 1u);
}

TEST(ArgList, IntOptionValidates)
{
    ArgList args = makeArgs({"-j", "8", "--bad", "3x"});
    unsigned n = 0;
    EXPECT_TRUE(args.intOption("-j", &n));
    EXPECT_EQ(n, 8u);
    EXPECT_FALSE(args.intOption("--bad", &n));
    EXPECT_EQ(args.errors().size(), 1u);
}

TEST(ArgList, IntOptionRejectsNegativeAndEmpty)
{
    ArgList args =
        makeArgs({"-j", "-1", "--n", "", "--big", "4294967296"});
    unsigned n = 7;
    EXPECT_FALSE(args.intOption("-j", &n)); // strtoul would wrap
    EXPECT_FALSE(args.intOption("--n", &n));
    // UINT_MAX + 1 would narrow to 0 (= all cores for -j).
    EXPECT_FALSE(args.intOption("--big", &n));
    EXPECT_EQ(n, 7u);
    EXPECT_EQ(args.errors().size(), 3u);
}

TEST(FinishArgs, ReportsLeftoversAndErrors)
{
    ArgList clean = makeArgs({"--x"});
    EXPECT_TRUE(clean.flag("--x"));
    EXPECT_TRUE(finishArgs(clean, "test"));

    ArgList leftover = makeArgs({"--unknown"});
    EXPECT_FALSE(finishArgs(leftover, "test"));

    ArgList bad = makeArgs({"--json"});
    std::string v;
    bad.option("--json", &v);
    EXPECT_FALSE(finishArgs(bad, "test"));
}

} // namespace
