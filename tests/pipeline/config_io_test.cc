/**
 * @file
 * Tests for the SMConfig / GpuConfig field tables: every table
 * field must survive JSON write -> parse -> operator==, unknown
 * keys and bad enum names must be strict errors naming the
 * offender, and the --set style key=value applier must cover
 * malformed input. These tests enumerate the tables, so a new
 * field is covered the moment it is added.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/config_io.hh"
#include "frontend/sched_policy.hh"
#include "pipeline/config_io.hh"

using namespace siwi;
using core::GpuConfig;
using pipeline::PipelineMode;
using pipeline::SMConfig;

namespace {

/** The siwi-run --dump-schema document, parsed. */
Json
configSchemas()
{
    std::string text;
    JsonWriter w(text, -1);
    core::writeConfigSchemas(w);
    return Json::parse(text, nullptr);
}

const PipelineMode all_modes[] = {
    PipelineMode::Baseline, PipelineMode::Warp64,
    PipelineMode::SBI,      PipelineMode::SWI,
    PipelineMode::SBISWI,
};

TEST(SMConfigIo, RoundTripsEveryMode)
{
    for (PipelineMode m : all_modes) {
        SMConfig c = SMConfig::make(m);
        Json j = jsonValue(c);
        SMConfig parsed; // defaults, overwritten by the full dump
        std::string err;
        ASSERT_TRUE(pipeline::smConfigApplyJson(j, &parsed, &err))
            << err;
        EXPECT_TRUE(parsed == c)
            << pipeline::pipelineModeName(m);
        EXPECT_FALSE(parsed != c);
    }
}

TEST(SMConfigIo, EveryFieldSurvivesMutatedRoundTrip)
{
    // Mutate each table field away from its default, one at a
    // time, and require the dump/parse cycle to reproduce the
    // mutation: a field serialized but not parsed (or vice
    // versa) fails here by construction.
    for (const ConfigField<SMConfig> &f :
         pipeline::smConfigFields()) {
        SMConfig c;
        u64 def = f.get(c);
        u64 alt;
        switch (f.type) {
          case ConfigFieldType::U32:
            alt = def + 1;
            break;
          case ConfigFieldType::Bool:
            alt = def ? 0 : 1;
            break;
          case ConfigFieldType::Enum:
            alt = (def + 1) % f.values.size();
            break;
        }
        f.set(c, alt);
        ASSERT_EQ(f.get(c), alt) << f.key;

        SMConfig parsed;
        std::string err;
        ASSERT_TRUE(pipeline::smConfigApplyJson(
            jsonValue(c), &parsed, &err))
            << f.key << ": " << err;
        EXPECT_TRUE(parsed == c) << f.key;

        // The mutation must also be visible to operator==.
        EXPECT_FALSE(parsed == SMConfig{}) << f.key;
    }
}

TEST(SMConfigIo, UnknownKeyIsAStrictErrorNamingTheKey)
{
    std::string err;
    Json j = Json::object();
    j.set("hct_entries", Json(8)); // no such field
    SMConfig c;
    EXPECT_FALSE(pipeline::smConfigApplyJson(j, &c, &err));
    EXPECT_NE(err.find("hct_entries"), std::string::npos) << err;
    // A failed apply must leave the config untouched.
    EXPECT_TRUE(c == SMConfig{});
}

TEST(SMConfigIo, FailedApplyLeavesConfigUntouched)
{
    Json j = Json::object();
    j.set("lookup_sets", Json(4)); // valid...
    j.set("bogus", Json(1));       // ...then an error
    SMConfig c;
    std::string err;
    EXPECT_FALSE(pipeline::smConfigApplyJson(j, &c, &err));
    EXPECT_EQ(c.lookup_sets, SMConfig{}.lookup_sets);
}

TEST(SMConfigIo, EnumRejectsBadStringsListingValues)
{
    std::string err;
    Json j = Json::object();
    j.set("lane_shuffle", Json("diagonal"));
    SMConfig c;
    EXPECT_FALSE(pipeline::smConfigApplyJson(j, &c, &err));
    EXPECT_NE(err.find("lane_shuffle"), std::string::npos) << err;
    EXPECT_NE(err.find("XorRev"), std::string::npos) << err;
}

TEST(SMConfigIo, EnumNamesAreCaseInsensitive)
{
    SMConfig c;
    std::string err;
    Json j = Json::object();
    j.set("lane_shuffle", Json("xor"));
    j.set("sched_policy", Json("GTO"));
    j.set("reconv", Json("Thread_Frontier"));
    ASSERT_TRUE(pipeline::smConfigApplyJson(j, &c, &err)) << err;
    EXPECT_EQ(c.lane_shuffle, pipeline::LaneShufflePolicy::Xor);
    EXPECT_EQ(c.sched_policy,
              frontend::SchedPolicyKind::GreedyThenOldest);
    EXPECT_EQ(c.reconv, pipeline::ReconvMode::ThreadFrontier);
}

TEST(SMConfigIo, TypeMismatchesAreErrors)
{
    SMConfig c;
    std::string err;
    Json j = Json::object();
    j.set("warp_width", Json(true));
    EXPECT_FALSE(pipeline::smConfigApplyJson(j, &c, &err));
    j = Json::object();
    j.set("sbi", Json(1));
    EXPECT_FALSE(pipeline::smConfigApplyJson(j, &c, &err));
    j = Json::object();
    j.set("warp_width", Json(-32));
    EXPECT_FALSE(pipeline::smConfigApplyJson(j, &c, &err));
}

TEST(SMConfigIo, KeyValueApplierParsesEveryFieldType)
{
    SMConfig c;
    std::string err;
    ASSERT_TRUE(pipeline::smConfigApplyKeyValue("lookup_sets=4",
                                                &c, &err))
        << err;
    EXPECT_EQ(c.lookup_sets, 4u);
    ASSERT_TRUE(
        pipeline::smConfigApplyKeyValue("sbi=true", &c, &err));
    EXPECT_TRUE(c.sbi);
    ASSERT_TRUE(
        pipeline::smConfigApplyKeyValue("sbi=0", &c, &err));
    EXPECT_FALSE(c.sbi);
    ASSERT_TRUE(pipeline::smConfigApplyKeyValue(
        "lane_shuffle=mirrorodd", &c, &err));
    EXPECT_EQ(c.lane_shuffle, pipeline::LaneShufflePolicy::MirrorOdd);
    ASSERT_TRUE(pipeline::smConfigApplyKeyValue(
        "sched_policy=gto", &c, &err));
    EXPECT_EQ(c.sched_policy,
              frontend::SchedPolicyKind::GreedyThenOldest);
}

TEST(SMConfigIo, KeyValueApplierRejectsMalformedInput)
{
    SMConfig c;
    const char *bad[] = {
        "missing=",         // empty value
        "=value",           // empty key
        "noequalsign",      // no '='
        "unknown_key=3",    // unknown key
        "lookup_sets=abc",  // not a number
        "lookup_sets=-1",   // negative
        "sbi=maybe",        // not a bool
        "lane_shuffle=zig", // bad enum name
        "warp_width=99999999999", // overflows u32
    };
    for (const char *kv : bad) {
        std::string err;
        EXPECT_FALSE(
            pipeline::smConfigApplyKeyValue(kv, &c, &err))
            << kv;
        EXPECT_FALSE(err.empty()) << kv;
    }
    // Nothing may have leaked into the config.
    EXPECT_TRUE(c == SMConfig{});
}

TEST(SMConfigIo, EnumNameArraysMatchTheDisplayFunctions)
{
    // The field-table enum names are the single CLI/JSON
    // vocabulary; they must agree with the name functions the
    // rest of the simulator prints.
    for (const ConfigField<SMConfig> &f :
         pipeline::smConfigFields()) {
        if (f.type != ConfigFieldType::Enum)
            continue;
        for (size_t i = 0; i < f.values.size(); ++i) {
            SMConfig c;
            f.set(c, u64(i));
            if (std::string(f.key) == "lane_shuffle") {
                EXPECT_STREQ(
                    f.values[i],
                    pipeline::laneShuffleName(c.lane_shuffle));
            } else if (std::string(f.key) == "sched_policy") {
                EXPECT_STREQ(
                    f.values[i],
                    frontend::schedPolicyName(c.sched_policy));
            }
        }
    }
}

TEST(SMConfigIo, SchemaDumpDescribesEveryField)
{
    const Json schema = *configSchemas().find("sm");
    ASSERT_TRUE(schema.isArray());
    ASSERT_EQ(schema.arr().size(),
              pipeline::smConfigFields().size());
    size_t i = 0;
    for (const ConfigField<SMConfig> &f :
         pipeline::smConfigFields()) {
        const Json &e = schema.arr()[i++];
        EXPECT_EQ(e.getString("key"), f.key);
        EXPECT_FALSE(e.getString("type").empty()) << f.key;
        EXPECT_FALSE(e.getString("doc").empty()) << f.key;
        EXPECT_NE(e.find("default"), nullptr) << f.key;
        if (f.type == ConfigFieldType::Enum) {
            const Json *vals = e.find("values");
            ASSERT_NE(vals, nullptr) << f.key;
            EXPECT_EQ(vals->arr().size(), f.values.size());
        }
    }
}

TEST(SMConfigIo, EqualityDistinguishesTheFiveMachines)
{
    for (PipelineMode a : all_modes) {
        for (PipelineMode b : all_modes) {
            SMConfig ca = SMConfig::make(a);
            SMConfig cb = SMConfig::make(b);
            if (a == b)
                EXPECT_TRUE(ca == cb);
            else
                EXPECT_TRUE(ca != cb)
                    << pipeline::pipelineModeName(a) << " vs "
                    << pipeline::pipelineModeName(b);
        }
    }
}

TEST(SMConfigIo, CheckInvariantsIsTheNonFatalValidate)
{
    // (A default-constructed SMConfig is not a machine — memory
    // splits require the heap — so start from a canonical one.)
    SMConfig c = SMConfig::make(PipelineMode::Baseline);
    EXPECT_TRUE(c.checkInvariants().empty());
    c.warp_width = 3;
    EXPECT_FALSE(c.checkInvariants().empty());
    c = SMConfig::make(PipelineMode::Baseline);
    c.sbi = true; // on stack reconvergence
    EXPECT_NE(c.checkInvariants().find("sbi"),
              std::string::npos);
    // Zero-width units would panic deep inside the exec stage;
    // the non-fatal check must catch them at load time.
    for (const char *kv :
         {"mad_width=0", "sfu_width=0", "lsu_width=0",
          "mad_groups=0"}) {
        c = SMConfig::make(PipelineMode::Baseline);
        std::string err;
        ASSERT_TRUE(
            pipeline::smConfigApplyKeyValue(kv, &c, &err));
        EXPECT_FALSE(c.checkInvariants().empty()) << kv;
    }
    for (PipelineMode m : all_modes)
        EXPECT_TRUE(
            SMConfig::make(m).checkInvariants().empty());
    // L1 geometries the cache constructor would panic on must
    // already fail the non-fatal check (whole sets only).
    c = SMConfig::make(PipelineMode::Baseline);
    c.mem.l1.size_bytes = 1000; // not a multiple of ways*block
    EXPECT_NE(c.checkInvariants().find("l1_size_bytes"),
              std::string::npos);
    c = SMConfig::make(PipelineMode::Baseline);
    c.mem.l1.ways = 65536; // u32 ways*block would wrap
    c.mem.l1.block_bytes = 65536;
    EXPECT_FALSE(c.checkInvariants().empty());
}

TEST(GpuConfigIo, RoundTripAndEquality)
{
    GpuConfig c =
        GpuConfig::make(PipelineMode::SBISWI, /*num_sms=*/4);
    Json j = jsonValue(c);
    // The dump must nest the full SM block.
    ASSERT_NE(j.find("sm"), nullptr);
    GpuConfig parsed;
    std::string err;
    ASSERT_TRUE(core::gpuConfigApplyJson(j, &parsed, &err))
        << err;
    EXPECT_TRUE(parsed == c);

    parsed.l2.ways = 8;
    EXPECT_TRUE(parsed != c);
    parsed = c;
    parsed.sm.lookup_sets = 2; // nested SM fields count too
    EXPECT_TRUE(parsed != c);
}

TEST(GpuConfigIo, UnknownChipKeyIsAnError)
{
    GpuConfig c;
    std::string err;
    Json j = Json::object();
    j.set("l3_size_bytes", Json(1024));
    EXPECT_FALSE(core::gpuConfigApplyJson(j, &c, &err));
    EXPECT_NE(err.find("l3_size_bytes"), std::string::npos);
    // Errors inside the nested "sm" block propagate too.
    j = Json::object();
    Json sm = Json::object();
    sm.set("bogus_knob", Json(1));
    j.set("sm", std::move(sm));
    EXPECT_FALSE(core::gpuConfigApplyJson(j, &c, &err));
    EXPECT_NE(err.find("bogus_knob"), std::string::npos);
}

/**
 * The Markdown table of @p schema (a writeConfigSchema() dump): one
 * row per field with its key, type, default and doc line.
 */
std::string
renderFieldTable(const Json &schema)
{
    std::string out = "| Key | Type | Default | Description |\n"
                      "|-----|------|---------|-------------|\n";
    for (const Json &e : schema.arr()) {
        std::string type = e.getString("type");
        const Json &def = *e.find("default");
        std::string shown;
        if (def.isString()) {
            shown = def.str();
            type += ":";
            const char *sep = " ";
            for (const Json &v : e.find("values")->arr()) {
                type += sep + ("`" + v.str() + "`");
                sep = " \\| ";
            }
        } else if (def.isBool()) {
            shown = def.boolean() ? "true" : "false";
        } else {
            shown = std::to_string(def.integer());
        }
        out += "| `" + e.getString("key") + "` | " + type;
        out += " | `" + shown + "` | " + e.getString("doc") + " |\n";
    }
    return out;
}

/** The rows of @p fields' bounded keys, labeled @p table. */
template <typename Cfg>
std::string
renderBoundRows(std::span<const ConfigField<Cfg>> fields,
                const char *table)
{
    std::string out;
    for (const ConfigField<Cfg> &f : fields) {
        if (f.bounded())
            out += "| `" + std::string(f.key) + "` | " +
                   std::to_string(f.lo) + ".." +
                   std::to_string(f.hi) + " | " + table + " |\n";
    }
    return out;
}

TEST(ConfigDocs, ConfigMdDocumentsEveryField)
{
    // docs/CONFIG.md's SM, chip and bounds tables are the field
    // lists rendered as Markdown, character for character: a
    // field added, removed, re-documented or re-bounded fails here
    // until the document shows it.
    std::ifstream in(std::string(SIWI_SOURCE_DIR) +
                     "/docs/CONFIG.md");
    ASSERT_TRUE(in.is_open());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string doc = buf.str();
    // The table lines (those starting with '|') between the
    // section's heading and the next one.
    auto table = [&](const std::string &heading) {
        std::string out;
        size_t at = doc.find("\n## " + heading + "\n");
        EXPECT_NE(at, std::string::npos) << heading;
        std::istringstream section(
            doc.substr(at, doc.find("\n## ", at + 1) - at));
        for (std::string line; std::getline(section, line);) {
            if (line.starts_with("|"))
                out += line + "\n";
        }
        return out;
    };
    const Json schemas = configSchemas();
    EXPECT_EQ(table("SM fields"),
              renderFieldTable(*schemas.find("sm")));
    EXPECT_EQ(table("Chip fields"),
              renderFieldTable(*schemas.find("chip")));
    EXPECT_EQ(table("Bounds on counts"),
              "| Key | Range | Table |\n|-----|-------|-------|\n" +
                  renderBoundRows(pipeline::smConfigFields(), "SM") +
                  renderBoundRows(core::gpuConfigFields(), "chip"));
}

TEST(GpuConfigIo, MakeDerivesAValidChip)
{
    for (unsigned sms : {1u, 2u, 4u, 8u}) {
        GpuConfig c = GpuConfig::make(PipelineMode::SBI, sms);
        EXPECT_TRUE(c.checkInvariants().empty()) << sms;
        EXPECT_EQ(c.num_sms, sms);
    }
    // Every chip needs DRAM bandwidth, a lone SM's included.
    GpuConfig c = GpuConfig::make(PipelineMode::SBI, 1);
    c.dram.bytes_per_cycle_x10 = 0;
    EXPECT_FALSE(c.checkInvariants().empty());
}

} // namespace
