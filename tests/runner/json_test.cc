/**
 * @file
 * Tests for the JSON writer and the minimal JSON value type:
 * parsing, deterministic serialization, the writer matching the
 * tree's dump byte for byte, round-tripping, and mutated inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "common/rng.hh"

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

/**
 * One document written straight into @p w: nested and empty
 * containers, every escape, the i64 extremes, u64 and the other
 * integer overloads, shortest-form and non-finite doubles.
 */
void
writeSample(JsonWriter &w)
{
    const double inf = std::numeric_limits<double>::infinity();
    w.beginObject();
    w.key("empty_object").beginObject();
    w.endObject();
    w.key("empty_array").beginArray();
    w.endArray();
    w.key("nested").beginArray();
    w.beginObject();
    w.key("a").beginArray();
    w.value(1);
    w.beginArray();
    w.endArray();
    w.endArray();
    w.endObject();
    w.beginArray();
    w.beginObject();
    w.endObject();
    w.endArray();
    w.endArray();
    w.key("esc\"aped\n").value("\"\\\n\r\t\x01\x1f/\x7f\xc3\xa9 ok");
    w.key("i64_min").value(std::numeric_limits<i64>::min());
    w.key("i64_max").value(std::numeric_limits<i64>::max());
    w.key("u64_max").value(std::numeric_limits<u64>::max());
    w.key("int").value(-7);
    w.key("unsigned").value(7u);
    w.key("third").value(1.0 / 3.0);
    w.key("whole").value(2.0);
    w.key("tiny").value(-1e-300);
    w.key("inf").value(inf);
    w.key("nan").value(std::nan(""));
    w.key("null").null();
    w.key("flags").beginArray();
    w.value(true);
    w.value(false);
    w.endArray();
    w.key("string").value(std::string("s"));
    w.endObject();
}

/** writeSample()'s document as a Json tree. */
Json
sampleTree()
{
    const double inf = std::numeric_limits<double>::infinity();
    Json j = Json::object();
    j.set("empty_object", Json::object());
    j.set("empty_array", Json::array());
    Json a = Json::array();
    a.push(Json(1));
    a.push(Json::array());
    Json o = Json::object();
    o.set("a", std::move(a));
    Json nested = Json::array();
    nested.push(std::move(o));
    Json inner = Json::array();
    inner.push(Json::object());
    nested.push(std::move(inner));
    j.set("nested", std::move(nested));
    j.set("esc\"aped\n", Json("\"\\\n\r\t\x01\x1f/\x7f\xc3\xa9 ok"));
    j.set("i64_min", Json(std::numeric_limits<i64>::min()));
    j.set("i64_max", Json(std::numeric_limits<i64>::max()));
    j.set("u64_max", Json(std::numeric_limits<u64>::max()));
    j.set("int", Json(-7));
    j.set("unsigned", Json(7u));
    j.set("third", Json(1.0 / 3.0));
    j.set("whole", Json(2.0));
    j.set("tiny", Json(-1e-300));
    j.set("inf", Json(inf));
    j.set("nan", Json(std::nan("")));
    j.set("null", Json(nullptr));
    Json flags = Json::array();
    flags.push(Json(true));
    flags.push(Json(false));
    j.set("flags", std::move(flags));
    j.set("string", Json("s"));
    return j;
}

TEST(Json, WriterMatchesTreeDumpAtEveryIndent)
{
    const Json tree = sampleTree();
    for (int indent : {-1, 0, 2}) {
        SCOPED_TRACE(indent);
        std::string text;
        JsonWriter w(text, indent);
        writeSample(w);
        EXPECT_EQ(text, tree.dump(indent));
    }
    // The compact text itself: escapes, the integer extremes (u64
    // kept as Json(u64) stores it), the shortest doubles and null
    // for the non-finite ones.
    std::string compact;
    JsonWriter w(compact, -1);
    writeSample(w);
    EXPECT_EQ(compact,
              "{\"empty_object\":{},\"empty_array\":[],"
              "\"nested\":[{\"a\":[1,[]]},[{}]],"
              "\"esc\\\"aped\\n\":"
              "\"\\\"\\\\\\n\\r\\t\\u0001\\u001f/\x7f\xc3\xa9 ok\","
              "\"i64_min\":-9223372036854775808,"
              "\"i64_max\":9223372036854775807,\"u64_max\":-1,"
              "\"int\":-7,\"unsigned\":7,"
              "\"third\":0.3333333333333333,\"whole\":2,"
              "\"tiny\":-1e-300,\"inf\":null,\"nan\":null,"
              "\"null\":null,\"flags\":[true,false],"
              "\"string\":\"s\"}");
    // Indentation: one level per container, ": " after a key, and
    // empty containers stay on their line.
    std::string pretty;
    JsonWriter p(pretty, 2);
    p.beginObject();
    p.key("a").beginArray();
    p.value(1);
    p.beginObject();
    p.endObject();
    p.endArray();
    p.key("b").beginArray();
    p.endArray();
    p.endObject();
    EXPECT_EQ(pretty, "{\n  \"a\": [\n    1,\n    {}\n  ],\n"
                      "  \"b\": []\n}");
    // A lone value takes no separator or line break.
    std::string lone;
    JsonWriter l(lone, 2);
    l.value(0.5);
    EXPECT_EQ(lone, "0.5");
}

/** Every committed spec, machine file and the fast-suite baseline. */
std::vector<std::string>
committedInputs()
{
    const std::string root = SIWI_SOURCE_DIR;
    std::vector<std::string> paths;
    for (const char *dir : {"/bench/specs", "/bench/specs/machines"}) {
        for (const auto &e :
             std::filesystem::directory_iterator(root + dir)) {
            if (e.path().extension() == ".json")
                paths.push_back(e.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    paths.push_back(root + "/bench/baseline.json");
    std::vector<std::string> texts;
    for (const std::string &p : paths) {
        std::ifstream in(p, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        texts.push_back(buf.str());
        parseOk(texts.back());
    }
    return texts;
}

/**
 * @p text with 1-3 random edits: a byte flipped to any value, a
 * truncation, a splice of a slice of @p other, or an inserted
 * structural character.
 */
std::string
mutate(std::string text, const std::string &other, Rng &rng)
{
    static const char structural[] = "{}[],:\"\\-.e0";
    for (u64 n = 1 + rng.below(3); n > 0 && !text.empty(); --n) {
        const size_t at = size_t(rng.below(text.size()));
        switch (rng.below(4)) {
          case 0:
            text[at] = char(rng.below(256));
            break;
          case 1:
            text.resize(at);
            break;
          case 2: {
            const size_t from = size_t(rng.below(other.size()));
            const size_t len = size_t(
                rng.below(std::min<u64>(64, other.size() - from)) + 1);
            text.replace(at, size_t(rng.below(8)),
                         other.substr(from, len));
            break;
          }
          default:
            text.insert(at, 1,
                        structural[rng.below(sizeof(structural) - 1)]);
        }
    }
    return text;
}

TEST(Json, MutatedCommittedInputsParseOrFailCleanly)
{
    // A fixed-seed, fixed-budget mutation run over the committed
    // inputs: every mutant either parses or reports an error, and
    // every one that parses dumps, re-parses and dumps to the same
    // bytes, compact and indented. A crash or a sanitizer report
    // here is a parser bug.
    const std::vector<std::string> inputs = committedInputs();
    ASSERT_GE(inputs.size(), 3u);
    Rng rng(20121006);
    unsigned parsed = 0;
    for (unsigned i = 0; i < 100000; ++i) {
        // The baseline (last) is 262 KB, several hundred times a
        // spec: one mutant in 500 keeps the run near a second.
        const size_t pick = i % 500 == 0
                                ? inputs.size() - 1
                                : size_t(rng.below(inputs.size() - 1));
        const std::string &other =
            inputs[size_t(rng.below(inputs.size() - 1))];
        const std::string text = mutate(inputs[pick], other, rng);
        std::string err;
        const Json j = Json::parse(text, &err);
        if (!err.empty()) {
            EXPECT_TRUE(j.isNull()) << err;
            continue;
        }
        ++parsed;
        for (int indent : {-1, 2}) {
            const std::string once = j.dump(indent);
            const Json back = Json::parse(once, &err);
            ASSERT_EQ(err, "") << "mutant " << i << ": " << once;
            EXPECT_EQ(back.dump(indent), once) << "mutant " << i;
        }
    }
    // Some mutants survive (e.g. a changed digit), so the round
    // trip is exercised.
    EXPECT_GT(parsed, 100u);
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
