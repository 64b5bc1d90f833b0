/**
 * Fixture tests for siwi-lint (tools/siwi_lint/).
 *
 * Each fixture under tools/siwi_lint/fixtures/ is a miniature repo
 * root. "clean" is complete and must pass; every other fixture is
 * an overlay of seeded violations applied on top of a temp copy of
 * clean, and must fail with findings that carry an actionable
 * file:line anchor. The last test runs the checker over the real
 * tree, which must stay clean against the committed schema pin.
 */

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hh"

namespace fs = std::filesystem;
using siwi::lint::Finding;
using siwi::lint::Options;
using siwi::lint::Result;

namespace {

const fs::path kFixtures =
    fs::path(SIWI_SOURCE_DIR) / "tools/siwi_lint/fixtures";

/** Copy clean/, overlay @p overlay (if any), return the temp root. */
class FixtureTree
{
  public:
    explicit FixtureTree(const std::string &overlay)
    {
        root_ = fs::temp_directory_path() /
                ("siwi_lint_" +
                 std::string(
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name()));
        fs::remove_all(root_);
        fs::copy(kFixtures / "clean", root_,
                 fs::copy_options::recursive);
        if (!overlay.empty())
            fs::copy(kFixtures / overlay, root_,
                     fs::copy_options::recursive |
                         fs::copy_options::overwrite_existing);
    }

    ~FixtureTree() { fs::remove_all(root_); }

    std::string path() const { return root_.string(); }

  private:
    fs::path root_;
};

Result
lintTree(const FixtureTree &tree)
{
    Options opts;
    opts.root = tree.path();
    return siwi::lint::runLint(opts);
}

bool
hasFinding(const Result &res, const std::string &check,
           const std::string &file, int line,
           const std::string &msg_part = "")
{
    return std::any_of(
        res.findings.begin(), res.findings.end(),
        [&](const Finding &f) {
            return f.check == check && f.file == file &&
                   (line == 0 || f.line == line) &&
                   f.message.find(msg_part) != std::string::npos;
        });
}

std::string
dump(const Result &res)
{
    std::string out;
    for (const std::string &e : res.errors)
        out += "error: " + e + "\n";
    for (const Finding &f : res.findings)
        out += f.format() + "\n";
    return out;
}

TEST(LintFixtures, CleanTreePasses)
{
    FixtureTree tree("");
    Result res = lintTree(tree);
    EXPECT_TRUE(res.clean()) << dump(res);
}

TEST(LintFixtures, BannedCallsReportedWithFileAndLine)
{
    FixtureTree tree("banned_call");
    Result res = lintTree(tree);
    ASSERT_TRUE(res.errors.empty()) << dump(res);
    EXPECT_TRUE(hasFinding(res, "nondet", "src/core/evil.cc", 13,
                           "unordered container"))
        << dump(res);
    EXPECT_TRUE(hasFinding(res, "nondet", "src/core/evil.cc", 14,
                           "rand()"))
        << dump(res);
    EXPECT_TRUE(hasFinding(res, "nondet", "src/core/evil.cc", 15,
                           "wall clock"))
        << dump(res);
    EXPECT_TRUE(hasFinding(res, "nondet", "src/core/evil.cc", 16,
                           "pointer-keyed"))
        << dump(res);
    // The comment mentioning rand() on line 2 must not be flagged.
    EXPECT_FALSE(hasFinding(res, "nondet", "src/core/evil.cc", 2))
        << dump(res);
    // Findings format as clickable file:line references.
    ASSERT_FALSE(res.findings.empty());
    EXPECT_NE(res.findings[0].format().find(
                  "src/core/evil.cc:13:"),
              std::string::npos);
}

TEST(LintFixtures, NewSerializedKeyWithoutBumpFails)
{
    FixtureTree tree("schema_drift");
    Result res = lintTree(tree);
    ASSERT_TRUE(res.errors.empty()) << dump(res);
    EXPECT_TRUE(hasFinding(res, "schema", "src/core/stats_io.hh", 0,
                           "brand_new_key"))
        << dump(res);
}

TEST(LintFixtures, VersionBumpWithoutPinRegenFails)
{
    FixtureTree tree("schema_bump");
    Result res = lintTree(tree);
    ASSERT_TRUE(res.errors.empty()) << dump(res);
    EXPECT_TRUE(hasFinding(res, "schema", "src/core/stats_io.hh", 0,
                           "pins v1"))
        << dump(res);
}

TEST(LintFixtures, UpdateSchemaPinMakesDriftClean)
{
    FixtureTree tree("schema_drift");
    Options opts;
    opts.root = tree.path();
    opts.update_schema_pin = true;
    Result update = siwi::lint::runLint(opts);
    ASSERT_TRUE(update.errors.empty()) << dump(update);
    Result res = lintTree(tree);
    EXPECT_TRUE(res.clean()) << dump(res);
}

TEST(LintFixtures, BadHeaderGuardAndUsingNamespace)
{
    FixtureTree tree("bad_header");
    Result res = lintTree(tree);
    ASSERT_TRUE(res.errors.empty()) << dump(res);
    EXPECT_TRUE(hasFinding(res, "header", "src/common/bad.hh", 0,
                           "SIWI_COMMON_BAD_HH"))
        << dump(res);
    EXPECT_TRUE(hasFinding(res, "header", "src/common/bad.hh", 7,
                           "using namespace"))
        << dump(res);
}

TEST(LintTree, RealSourcesAreClean)
{
    Options opts;
    opts.root = SIWI_SOURCE_DIR;
    Result res = siwi::lint::runLint(opts);
    EXPECT_TRUE(res.clean()) << dump(res);
}

} // namespace
