/**
 * @file
 * Tests for the minimal JSON value type: parsing, deterministic
 * serialization, and round-tripping.
 */

#include <gtest/gtest.h>

#include "common/json.hh"

using namespace siwi;

namespace {

Json
parseOk(const std::string &text)
{
    std::string err;
    Json j = Json::parse(text, &err);
    EXPECT_EQ(err, "") << "parsing: " << text;
    return j;
}

std::string
parseErr(const std::string &text)
{
    std::string err;
    Json::parse(text, &err);
    EXPECT_NE(err, "") << "expected failure parsing: " << text;
    return err;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_EQ(parseOk("true").boolean(), true);
    EXPECT_EQ(parseOk("false").boolean(), false);
    EXPECT_EQ(parseOk("42").integer(), 42);
    EXPECT_EQ(parseOk("-7").integer(), -7);
    EXPECT_DOUBLE_EQ(parseOk("2.5").number(), 2.5);
    EXPECT_DOUBLE_EQ(parseOk("-1e3").number(), -1000.0);
    EXPECT_EQ(parseOk("\"hi\"").str(), "hi");
}

TEST(Json, IntAndDoubleAreDistinct)
{
    EXPECT_TRUE(parseOk("3").isInt());
    EXPECT_FALSE(parseOk("3").isDouble());
    EXPECT_TRUE(parseOk("3.0").isDouble());
    EXPECT_TRUE(parseOk("3").isNumber());
    EXPECT_TRUE(parseOk("3.0").isNumber());
}

TEST(Json, ParsesContainers)
{
    Json j = parseOk("{\"a\": [1, 2.5, \"x\"], \"b\": {}}");
    ASSERT_TRUE(j.isObject());
    const Json *a = j.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    EXPECT_EQ(a->arr().size(), 3u);
    EXPECT_EQ(a->arr()[0].integer(), 1);
    const Json *b = j.find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(b->isObject());
    EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, StringEscapes)
{
    Json j = parseOk("\"a\\n\\t\\\"\\\\b\\u0041\"");
    EXPECT_EQ(j.str(), "a\n\t\"\\bA");
    EXPECT_EQ(parseOk("\"\\/\\b\\f\\r\"").str(), "/\b\f\r");
    // \u escapes decode to UTF-8: two bytes for U+00E9, three for
    // U+20AC.
    EXPECT_EQ(parseOk("\"\\u00e9\"").str(), "\xc3\xa9");
    EXPECT_EQ(parseOk("\"\\u20AC\"").str(), "\xe2\x82\xac");
    EXPECT_NE(parseErr("\"\\q\"").find("bad escape character"),
              std::string::npos);
    EXPECT_NE(parseErr("\"\\u12\"").find("truncated \\u escape"),
              std::string::npos);
    EXPECT_NE(parseErr("\"\\u12g4\"").find("bad \\u escape"),
              std::string::npos);
    EXPECT_NE(parseErr("\"a\x01\"").find("raw control character"),
              std::string::npos);
    EXPECT_NE(parseErr("\"a\\").find("unterminated string"),
              std::string::npos);
    // Quotes, backslashes and control characters are re-escaped on
    // output; one without a short form is written as \u00XX.
    EXPECT_EQ(Json("a\nb").dump(), "\"a\\nb\"");
    EXPECT_EQ(Json("\"\\\r\t\x01").dump(), "\"\\\"\\\\\\r\\t\\u0001\"");
}

TEST(Json, RejectsMalformedInput)
{
    parseErr("");
    parseErr("{");
    parseErr("[1,");
    parseErr("{\"a\" 1}");
    parseErr("tru");
    parseErr("1 2");
    parseErr("\"unterminated");
    parseErr("{\"a\":}");
    parseErr("[01x]");
}

TEST(Json, DeepNestingIsAParseErrorNotAStackOverflow)
{
    std::string deep(100000, '[');
    parseErr(deep);
    // Sibling containers do not accumulate depth.
    std::string wide = "[";
    for (int i = 0; i < 300; ++i)
        wide += "{},";
    wide += "[]]";
    parseOk(wide);
}

TEST(Json, ObjectsPreserveInsertionOrder)
{
    Json j = Json::object();
    j.set("z", Json(1));
    j.set("a", Json(2));
    EXPECT_EQ(j.dump(), "{\"z\":1,\"a\":2}");
}

TEST(Json, DumpParseRoundTrip)
{
    Json j = Json::object();
    j.set("name", Json("fig7"));
    j.set("count", Json(u64(1234567890123ull)));
    j.set("ipc", Json(38.119999999999997));
    j.set("flags", Json(true));
    Json arr = Json::array();
    arr.push(Json(1));
    arr.push(Json(2.25));
    arr.push(Json(nullptr));
    j.set("values", std::move(arr));

    for (int indent : {-1, 2}) {
        std::string text = j.dump(indent);
        std::string err;
        Json back = Json::parse(text, &err);
        EXPECT_EQ(err, "");
        EXPECT_EQ(back, j) << text;
        // Serialization is deterministic.
        EXPECT_EQ(back.dump(indent), text);
    }
}

TEST(Json, DoublesRoundTripExactly)
{
    for (double d : {0.1, 1.0 / 3.0, 38.12, 1e-300, -2.5e17}) {
        std::string text = Json(d).dump();
        std::string err;
        Json back = Json::parse(text, &err);
        EXPECT_EQ(err, "");
        EXPECT_EQ(back.number(), d) << text;
    }
}

TEST(Json, TypedAccessorsWithDefaults)
{
    Json j = parseOk(
        "{\"i\": 3, \"d\": 2.5, \"b\": true, \"s\": \"x\"}");
    EXPECT_EQ(j.getInt("i"), 3);
    EXPECT_EQ(j.getInt("d"), 2);
    EXPECT_EQ(j.getInt("missing", -1), -1);
    EXPECT_DOUBLE_EQ(j.getDouble("i"), 3.0);
    EXPECT_DOUBLE_EQ(j.getDouble("d"), 2.5);
    EXPECT_EQ(j.getBool("b"), true);
    EXPECT_EQ(j.getBool("missing", true), true);
    EXPECT_EQ(j.getString("s"), "x");
    EXPECT_EQ(j.getString("i", "def"), "def");
}

} // namespace
