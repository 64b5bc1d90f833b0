/**
 * @file
 * Tests for the SimSpec layer: the runtime machine registry,
 * machine files, spec-file expansion, machine-column
 * deduplication, and the resolved-config block embedded into
 * results.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <span>

#include "checked_in_spec.hh"
#include "common/log.hh"
#include "core/config_io.hh"
#include "pipeline/config_io.hh"
#include "runner/runner.hh"

using namespace siwi;
using namespace siwi::runner;
using workloads::SizeClass;

namespace {

std::string
specPath(const std::string &name)
{
    return std::string(SIWI_SOURCE_DIR) + "/bench/specs/" + name;
}

Json
parseJson(const std::string &text)
{
    std::string err;
    Json j = Json::parse(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    return j;
}

TEST(MachineRegistry, SeedsThePaperMachinesCaseInsensitively)
{
    MachineRegistry reg;
    EXPECT_EQ(reg.machines().size(), 5u);
    ASSERT_NE(reg.find("SBI+SWI"), nullptr);
    ASSERT_NE(reg.find("sbi+swi"), nullptr);
    ASSERT_NE(reg.find("baseline"), nullptr);
    EXPECT_EQ(reg.find("NoSuchMachine"), nullptr);
    EXPECT_TRUE(reg.find("sbi+swi")->config ==
                pipeline::SMConfig::make(
                    pipeline::PipelineMode::SBISWI));
}

TEST(MachineRegistry, RejectsDuplicateNames)
{
    MachineRegistry reg;
    std::string err;
    EXPECT_TRUE(reg.add({"Custom", pipeline::SMConfig{}}, &err));
    EXPECT_FALSE(reg.add({"custom", pipeline::SMConfig{}}, &err));
    EXPECT_NE(err.find("custom"), std::string::npos);
    EXPECT_FALSE(
        reg.add({"baseline", pipeline::SMConfig{}}, &err));
}

TEST(MachineFromJson, BasePlusSetBuildsADerivedMachine)
{
    MachineRegistry reg;
    MachineSpec m;
    std::string err;
    Json j = parseJson(R"({"name": "X", "base": "swi",
                           "set": {"lookup_sets": 8}})");
    ASSERT_TRUE(machineFromJson(j, "", reg, &m, &err)) << err;
    EXPECT_EQ(m.name, "X");
    EXPECT_EQ(m.config.lookup_sets, 8u);
    pipeline::SMConfig want =
        pipeline::SMConfig::make(pipeline::PipelineMode::SWI);
    want.lookup_sets = 8;
    EXPECT_TRUE(m.config == want);
}

TEST(MachineFromJson, ErrorsNameTheProblem)
{
    MachineRegistry reg;
    MachineSpec m;
    std::string err;

    Json j = parseJson(R"({"name": "X", "base": "fermi"})");
    EXPECT_FALSE(machineFromJson(j, "", reg, &m, &err));
    EXPECT_NE(err.find("fermi"), std::string::npos);
    EXPECT_NE(err.find("Baseline"), std::string::npos); // known

    j = parseJson(R"({"base": "swi"})");
    EXPECT_FALSE(machineFromJson(j, "", reg, &m, &err));
    EXPECT_NE(err.find("name"), std::string::npos);

    j = parseJson(R"({"name": "X", "base": "swi",
                      "set": {"hct_entries": 8}})");
    EXPECT_FALSE(machineFromJson(j, "", reg, &m, &err));
    EXPECT_NE(err.find("hct_entries"), std::string::npos);

    // A set that violates the config invariants is caught at
    // load time, not by a simulator panic later.
    j = parseJson(R"({"name": "X", "base": "sbi",
                      "set": {"reconv": "stack"}})");
    EXPECT_FALSE(machineFromJson(j, "", reg, &m, &err));
    EXPECT_NE(err.find("thread-frontier"), std::string::npos) << err;

    j = parseJson(R"({"name": "X", "base": "swi",
                      "flavor": "mild"})");
    EXPECT_FALSE(machineFromJson(j, "", reg, &m, &err));
    EXPECT_NE(err.find("flavor"), std::string::npos);
}

TEST(MachineFile, LoadsTheCheckedInExample)
{
    MachineRegistry reg;
    MachineSpec m;
    std::string err;
    ASSERT_TRUE(loadMachineFile(
        specPath("machines/sbi_swi_cct16_xor.json"), reg, &m,
        &err))
        << err;
    EXPECT_EQ(m.name, "SBI+SWI-cct16-xor");
    EXPECT_EQ(m.config.heap.cct_capacity, 16u);
    EXPECT_EQ(m.config.lane_shuffle, pipeline::LaneShufflePolicy::Xor);
    EXPECT_TRUE(m.config.sbi);
    EXPECT_TRUE(m.config.swi);
}

TEST(MachineFile, NameDefaultsToTheFileStem)
{
    std::string path = testing::TempDir() + "my_swi.json";
    {
        std::ofstream out(path);
        out << R"({"base": "swi", "set": {"lookup_sets": 2}})";
    }
    MachineRegistry reg;
    MachineSpec m;
    std::string err;
    ASSERT_TRUE(loadMachineFile(path, reg, &m, &err)) << err;
    EXPECT_EQ(m.name, "my_swi");
    EXPECT_EQ(m.config.lookup_sets, 2u);
}

TEST(MachineFile, RejectsFileToFileIndirection)
{
    std::string path = testing::TempDir() + "indirect.json";
    {
        std::ofstream out(path);
        out << R"({"file": "other.json"})";
    }
    MachineRegistry reg;
    MachineSpec m;
    std::string err;
    EXPECT_FALSE(loadMachineFile(path, reg, &m, &err));
    EXPECT_NE(err.find("cannot reference"), std::string::npos)
        << err;
}

TEST(SpecFile, StrictErrorsNameTheOffender)
{
    auto load = [](const std::string &text, std::string *err) {
        MachineRegistry reg;
        std::vector<SweepSpec> sweeps;
        std::string label;
        return sweepsFromSpecJson(parseJson(text), "", &reg,
                                  &sweeps, &label, err);
    };
    std::string err;

    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [],
                          "color": "red"})",
                      &err));
    EXPECT_NE(err.find("color"), std::string::npos);

    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["NoSuchBench"]}]})",
                      &err));
    EXPECT_NE(err.find("NoSuchBench"), std::string::npos);

    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["Fermi2"],
         "workloads": ["regular"]}]})",
                      &err));
    EXPECT_NE(err.find("Fermi2"), std::string::npos);

    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["regular"],
         "policies": ["fifo"]}]})",
                      &err));
    EXPECT_NE(err.find("oldest"), std::string::npos) << err;

    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI", "sbi"],
         "workloads": ["regular"]}]})",
                      &err));
    EXPECT_NE(err.find("duplicate machine"), std::string::npos);

    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["regular"], "sms": [0]}]})",
                      &err));
    EXPECT_NE(err.find("sms"), std::string::npos);

    // Duplicate axis entries would expand to duplicate cells
    // with colliding labels.
    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["regular"], "sms": [2, 2]}]})",
                      &err));
    EXPECT_NE(err.find("duplicate sms"), std::string::npos);
    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["regular"],
         "policies": ["gto", "gto"]}]})",
                      &err));
    EXPECT_NE(err.find("twice"), std::string::npos) << err;
    // ...including via the oldest entry resolving to a machine's
    // own sched_policy.
    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s",
         "machines": [{"name": "G", "base": "SBI",
                       "set": {"sched_policy": "gto"}}],
         "workloads": ["regular"],
         "policies": ["oldest", "gto"]}]})",
                      &err));
    EXPECT_NE(err.find("twice"), std::string::npos) << err;

    // There is no mode key: the base machine names the machine.
    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s",
         "machines": [{"name": "M", "base": "Baseline",
                       "set": {"mode": "SBI+SWI"}}],
         "workloads": ["regular"]}]})",
                      &err));
    EXPECT_NE(err.find("mode"), std::string::npos) << err;
    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["regular"],
         "set": {"mode": "SWI"}}]})",
                      &err));
    EXPECT_NE(err.find("mode"), std::string::npos) << err;
    // Nor a scheduler_latency key (swi is the cascaded scheduler)
    // or an l2_block_bytes key (the L2 uses the L1's blocks).
    for (const std::string key :
         {"scheduler_latency", "l2_block_bytes"}) {
        EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
            {"name": "s", "machines": ["SBI"],
             "workloads": ["regular"], "set": {")" +
                              key + R"(": 2}}]})",
                          &err));
        EXPECT_NE(err.find(key), std::string::npos) << err;
    }

    // A set block's values must have their field's JSON type, in
    // a machine's set block and a sweep's alike.
    const char *const mistyped[][3] = {
        {"num_warps", R"("16")", "needs an unsigned integer"},
        {"sbi_constraints", "0", "needs true or false"},
        {"sbi_constraints", R"("false")", "needs true or false"},
    };
    for (const auto &c : mistyped) {
        SCOPED_TRACE(c[1]);
        EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
            {"name": "s",
             "machines": [{"name": "M", "base": "SBI",
                           "set": {")" + std::string(c[0]) +
                              R"(": )" + c[1] + R"(}}],
             "workloads": ["regular"]}]})",
                          &err));
        EXPECT_NE(err.find(std::string("config key '") + c[0] + "' " + c[2]),
                  std::string::npos)
            << err;
    }
    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["regular"], "set": {"mshrs": "32"}}]})",
                      &err));
    EXPECT_NE(err.find("config key 'mshrs' needs an unsigned integer"),
              std::string::npos)
        << err;

    EXPECT_FALSE(load(R"({"name": "x", "sweeps": [
        {"name": "s", "machines": ["SBI"],
         "workloads": ["regular"]},
        {"name": "s", "machines": ["SWI"],
         "workloads": ["regular"]}]})",
                      &err));
    EXPECT_NE(err.find("duplicate sweep"), std::string::npos);
}

TEST(SweepCheck, OverridesAndSpecFilesReportOneFormat)
{
    // A key set in a spec sweep's "set" block, and the same key
    // applied to the loaded sweep afterwards (siwi-run's --set),
    // fail the one sweep check with one diagnostic.
    struct Case
    {
        const char *key, *value, *json, *names;
    };
    const Case cases[] = {
        {"sched_policy", "gto", R"("gto")", "runs policy 'gto' twice"},
        {"l2_slices", "4096", "4096", "@16sm: l2_slices must divide"},
        {"num_warps", "0", "0", "num_warps"},
    };
    const std::string sweep =
        R"({"name": "s", "machines": ["SBI"], "workloads": ["BFS"],
            "sms": [16], "policies": ["oldest", "gto"])";
    for (const Case &c : cases) {
        SCOPED_TRACE(c.key);
        MachineRegistry reg;
        std::vector<SweepSpec> sweeps;
        std::string label, spec_err;
        EXPECT_FALSE(sweepsFromSpecJson(
            parseJson(R"({"name": "x", "sweeps": [)" + sweep +
                      R"(, "set": {")" + c.key + R"(": )" + c.json + "}}]}"),
            "", &reg, &sweeps, &label, &spec_err));
        EXPECT_NE(spec_err.find(c.names), std::string::npos)
            << spec_err;

        std::string err;
        ASSERT_TRUE(sweepsFromSpecJson(
            parseJson(R"({"name": "x", "sweeps": [)" + sweep + "}]}"),
            "", &reg, &sweeps, &label, &err))
            << err;
        ASSERT_EQ(checkSweep(sweeps[0]), "");
        for (MachineSpec &m : sweeps[0].machines)
            ASSERT_TRUE(machineApplyKeyValue(
                &m, std::string(c.key) + "=" + c.value, &err))
                << err;
        EXPECT_EQ(checkSweep(sweeps[0]), spec_err);
    }
}

TEST(SpecFile, EnumNamesMatchAnyCaseAndLabelCanonically)
{
    MachineRegistry reg;
    std::vector<SweepSpec> sweeps;
    std::string label, err;
    ASSERT_TRUE(sweepsFromSpecJson(
        parseJson(R"({"name": "x", "sweeps": [
            {"name": "s", "machines": ["SBI"],
             "workloads": ["BFS"], "size": "Full",
             "policies": ["GTO"]}]})"),
        "", &reg, &sweeps, &label, &err))
        << err;
    ASSERT_EQ(sweeps.size(), 1u);
    const SweepSpec &s = sweeps[0];
    EXPECT_EQ(s.size, SizeClass::Full);
    EXPECT_STREQ(sizeClassName(s.size), "full");
    ASSERT_EQ(s.policies.size(), 1u);
    EXPECT_EQ(s.policies[0],
              frontend::SchedPolicyKind::GreedyThenOldest);
    EXPECT_EQ(cellMachineLabel("SBI", s.policies[0], 1), "SBI/gto");
}

// Each enum's name array has one entry per enumerator...
static_assert(std::size(pipeline::pipeline_mode_names) ==
              size_t(pipeline::PipelineMode::SBISWI) + 1);
static_assert(std::size(pipeline::reconv_names) ==
              size_t(pipeline::ReconvMode::ThreadFrontier) + 1);
static_assert(std::size(pipeline::lane_shuffle_names) ==
              size_t(pipeline::LaneShufflePolicy::XorRev) + 1);
static_assert(std::size(frontend::sched_policy_names) ==
              size_t(frontend::SchedPolicyKind::MinPc) + 1);
static_assert(std::size(workloads::size_class_names) ==
              size_t(SizeClass::Chip) + 1);

/**
 * ...and is the only spelling of its values: for every value,
 * name -> enumIndex (in any letter case) -> name round-trips
 * through the display function, and the config table's enum rows
 * use the same arrays.
 */
TEST(EnumNames, EveryValueRoundTrips)
{
    struct Row
    {
        std::span<const char *const> names;
        std::string (*display)(size_t);
    };
    const Row rows[] = {
        {pipeline::pipeline_mode_names,
         [](size_t i) -> std::string {
             return pipeline::pipelineModeName(
                 pipeline::PipelineMode(i));
         }},
        {pipeline::reconv_names,
         [](size_t i) {
             pipeline::SMConfig c;
             c.reconv = pipeline::ReconvMode(i);
             return pipeline::smConfigToJson(c).getString("reconv");
         }},
        {pipeline::lane_shuffle_names,
         [](size_t i) -> std::string {
             return pipeline::laneShuffleName(
                 pipeline::LaneShufflePolicy(i));
         }},
        {frontend::sched_policy_names,
         [](size_t i) -> std::string {
             return frontend::schedPolicyName(
                 frontend::SchedPolicyKind(i));
         }},
        {workloads::size_class_names,
         [](size_t i) -> std::string {
             return sizeClassName(SizeClass(i));
         }},
    };
    for (const Row &r : rows) {
        for (size_t i = 0; i < r.names.size(); ++i) {
            const std::string name = r.display(i);
            EXPECT_EQ(name, r.names[i]);
            std::string upper = name, lower = name;
            for (char &ch : upper)
                ch = char(std::toupper(static_cast<unsigned char>(ch)));
            for (char &ch : lower)
                ch = char(std::tolower(static_cast<unsigned char>(ch)));
            for (const std::string &spelling : {name, upper, lower}) {
                size_t back = r.names.size();
                ASSERT_TRUE(enumIndex(r.names, spelling, &back))
                    << spelling;
                EXPECT_EQ(r.display(back), name) << spelling;
            }
        }
        size_t back = 0;
        EXPECT_FALSE(enumIndex(r.names, "no-such-name", &back));
    }
    for (const ConfigField<pipeline::SMConfig> &f :
         pipeline::smConfigFields()) {
        if (f.type != ConfigFieldType::Enum)
            continue;
        bool shared = false;
        for (const Row &r : rows)
            shared = shared || r.names.data() == f.values.data();
        EXPECT_TRUE(shared) << f.key;
    }
}

TEST(SpecFile, SweepLevelSetAppliesToEveryMachine)
{
    MachineRegistry reg;
    std::vector<SweepSpec> sweeps;
    std::string label, err;
    ASSERT_TRUE(sweepsFromSpecJson(
        parseJson(R"({"name": "x", "sweeps": [
            {"name": "s", "machines": ["Baseline", "SBI+SWI"],
             "workloads": ["BFS"], "size": "tiny",
             "set": {"mshrs": 16}}]})"),
        "", &reg, &sweeps, &label, &err))
        << err;
    ASSERT_EQ(sweeps.size(), 1u);
    for (const MachineSpec &m : sweeps[0].machines)
        EXPECT_EQ(m.config.mem.mshrs, 16u) << m.name;
    // The registry rows themselves must stay pristine.
    EXPECT_EQ(reg.find("Baseline")->config.mem.mshrs,
              pipeline::SMConfig{}.mem.mshrs);
}

TEST(SpecFile, InlineMachinesAndSpecMachinesSection)
{
    MachineRegistry reg;
    std::vector<SweepSpec> sweeps;
    std::string label, err;
    ASSERT_TRUE(sweepsFromSpecJson(
        parseJson(R"({"name": "x",
            "machines": [{"name": "SWI-dm", "base": "SWI",
                          "set": {"lookup_sets": 16}}],
            "sweeps": [
              {"name": "s",
               "machines": ["SWI-dm",
                            {"name": "SWI-2way", "base": "SWI",
                             "set": {"lookup_sets": 8}}],
               "workloads": ["BFS"], "size": "tiny"}]})"),
        "", &reg, &sweeps, &label, &err))
        << err;
    ASSERT_EQ(sweeps[0].machines.size(), 2u);
    EXPECT_EQ(sweeps[0].machines[0].name, "SWI-dm");
    EXPECT_EQ(sweeps[0].machines[0].config.lookup_sets, 16u);
    EXPECT_EQ(sweeps[0].machines[1].name, "SWI-2way");
    EXPECT_EQ(sweeps[0].machines[1].config.lookup_sets, 8u);
    // The spec "machines" section registered its row.
    EXPECT_NE(reg.find("SWI-dm"), nullptr);
}

TEST(Dedupe, IdenticalMachineColumnsCollapseWithAWarning)
{
    setLogQuiet(true);
    SweepSpec s = fig7IrregularTiny();
    s.filterMachines({"Baseline", "SBI"});
    MachineSpec twin = s.machines[0];
    twin.name = "Baseline-again"; // same config, new name
    s.machines.push_back(twin);
    ASSERT_EQ(s.machines.size(), 3u);
    s.dedupeMachines();
    ASSERT_EQ(s.machines.size(), 2u);
    EXPECT_EQ(s.machines[0].name, "Baseline");
    EXPECT_EQ(s.machines[1].name, "SBI");
}

TEST(Dedupe, RunSweepsNeverRunsADuplicateColumn)
{
    setLogQuiet(true);
    SweepSpec s = fig7IrregularTiny();
    s.name = "dup";
    s.filterMachines({"Baseline"});
    s.filterWorkloads({"BFS"});
    MachineSpec twin = s.machines[0];
    twin.name = "Copy";
    s.machines.push_back(twin);
    Results res = runSweeps({s});
    EXPECT_EQ(res.cells.size(), 1u);
    EXPECT_EQ(res.machines.size(), 1u);
    EXPECT_EQ(res.cells[0].machine, "Baseline");
}

TEST(Results, EmbedsTheResolvedMachineConfigs)
{
    setLogQuiet(true);
    MachineRegistry reg;
    MachineSpec custom;
    std::string err;
    ASSERT_TRUE(loadMachineFile(
        specPath("machines/sbi_swi_cct16_xor.json"), reg,
        &custom, &err))
        << err;

    SweepSpec s;
    s.name = "custom";
    s.size = SizeClass::Tiny;
    s.machines = {custom};
    s.wls = {workloads::findWorkload("BFS")};
    s.sms = {2};
    Results res = runSweeps({s});

    ASSERT_EQ(res.machines.size(), 1u);
    const MachineRecord &r = res.machines[0];
    EXPECT_EQ(r.sweep, "custom");
    EXPECT_EQ(r.machine, "SBI+SWI-cct16-xor@2sm");
    EXPECT_EQ(r.config.num_sms, 2u);
    EXPECT_EQ(r.config.sm.heap.cct_capacity, 16u);
    EXPECT_EQ(r.config.sm.lane_shuffle, pipeline::LaneShufflePolicy::Xor);
    ASSERT_EQ(res.cells.size(), 1u);
    EXPECT_EQ(res.cells[0].machine, r.machine);
    EXPECT_NE(res.findMachine("custom", res.cells[0].machine),
              nullptr);

    // The config block must appear verbatim in the JSON and
    // survive a full round trip.
    Json j = res.toJson();
    const Json *jm = j.find("machines");
    ASSERT_NE(jm, nullptr);
    ASSERT_EQ(jm->arr().size(), 1u);
    const Json *cfg = jm->arr()[0].find("config");
    ASSERT_NE(cfg, nullptr);
    EXPECT_EQ(*cfg, core::gpuConfigToJson(r.config));

    Results parsed;
    ASSERT_TRUE(Results::fromJson(j, &parsed, &err)) << err;
    EXPECT_TRUE(parsed == res);
}

TEST(Results, MachineLevelSchedPolicyIsHonored)
{
    // A sched_policy configured on the machine itself (a machine
    // file's "set", or --set) must actually run under the
    // default oldest-first policy axis — and show up in the cell
    // label and the resolved config.
    setLogQuiet(true);
    SweepSpec s = fig7IrregularTiny();
    s.name = "polfield";
    s.filterMachines({"Baseline"});
    s.filterWorkloads({"BFS"});
    std::string err;
    ASSERT_TRUE(pipeline::smConfigApplyKeyValue(
        "sched_policy=gto", &s.machines[0].config, &err))
        << err;
    EXPECT_EQ(effectivePolicy(s, 0, 0),
              frontend::SchedPolicyKind::GreedyThenOldest);

    Results res = runSweeps({s});
    ASSERT_EQ(res.cells.size(), 1u);
    EXPECT_EQ(res.cells[0].machine, "Baseline/gto");
    EXPECT_EQ(res.cells[0].policy, "gto");
    ASSERT_EQ(res.machines.size(), 1u);
    EXPECT_EQ(res.machines[0].config.sm.sched_policy,
              frontend::SchedPolicyKind::GreedyThenOldest);

    // ...and match what an explicit policy-axis run produces.
    SweepSpec axis = fig7IrregularTiny();
    axis.name = "polfield";
    axis.filterMachines({"Baseline"});
    axis.filterWorkloads({"BFS"});
    axis.policies = {frontend::SchedPolicyKind::GreedyThenOldest};
    Results want = runSweeps({axis});
    EXPECT_EQ(res.cells[0], want.cells[0]);

    // An explicit non-default axis entry still overrides the
    // machine field.
    s.policies = {frontend::SchedPolicyKind::RoundRobin};
    EXPECT_EQ(effectivePolicy(s, 0, 0),
              frontend::SchedPolicyKind::RoundRobin);
}

TEST(Results, MachineRecordsFollowCanonicalOrder)
{
    SweepSpec s = fig7IrregularTiny();
    s.filterMachines({"Baseline", "SBI"});
    s.filterWorkloads({"BFS"});
    s.sms = {1, 2};
    std::vector<MachineRecord> recs = machineRecords({s});
    ASSERT_EQ(recs.size(), 4u);
    EXPECT_EQ(recs[0].machine, "Baseline");
    EXPECT_EQ(recs[1].machine, "SBI");
    EXPECT_EQ(recs[2].machine, "Baseline@2sm");
    EXPECT_EQ(recs[3].machine, "SBI@2sm");
    EXPECT_EQ(recs[2].config.num_sms, 2u);
}

} // namespace
