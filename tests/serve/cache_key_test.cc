/**
 * @file
 * Cache-key canonicalization: the key must be a pure function of
 * what a cell computes — the fully-resolved chip configuration,
 * the workload, the size class and the stats schema — and of
 * nothing else. Equal cells hash equal no matter how they were
 * described (builtin registry name, machine file, --set-style
 * mutation); any field-table mutation, schema bump or axis change
 * hashes different. The field sweeps enumerate the SMConfig and
 * GpuConfig tables, so a new knob that joins a table is covered
 * automatically.
 */

#include <gtest/gtest.h>

#include "core/config_io.hh"
#include "core/stats_io.hh"
#include "pipeline/config_io.hh"
#include "runner/results.hh"
#include "runner/spec.hh"
#include "serve/cache_key.hh"
#include "workloads/workload.hh"

using namespace siwi;
using namespace siwi::serve;

namespace {

runner::SweepSpec
oneCellSweep(const runner::MachineSpec &m)
{
    runner::SweepSpec s;
    s.name = "key_test";
    s.machines = {m};
    s.wls = {workloads::findWorkload("BFS")};
    s.size = workloads::SizeClass::Tiny;
    return s;
}

runner::CellSpec
firstCell()
{
    return runner::CellSpec{};
}

/** Mutate one field to a different value through its numeric
 *  view; false when the field has no other value to take. */
template <typename Cfg>
bool
perturbField(const ConfigField<Cfg> &f, Cfg *c)
{
    u64 cur = f.get(*c);
    switch (f.type) {
      case ConfigFieldType::U32:
        f.set(*c, cur + 1);
        return true;
      case ConfigFieldType::Bool:
        f.set(*c, cur ? 0 : 1);
        return true;
      case ConfigFieldType::Enum: {
        if (f.values.size() < 2)
            return false;
        f.set(*c, (cur + 1) % f.values.size());
        return true;
      }
    }
    return false;
}

} // namespace

TEST(CacheKey, StableAndWellFormed)
{
    runner::MachineRegistry reg;
    runner::SweepSpec s =
        oneCellSweep(*reg.find("SBI+SWI"));
    std::string k1 = cellCacheKey(s, firstCell());
    std::string k2 = cellCacheKey(s, firstCell());
    EXPECT_EQ(k1, k2);
    ASSERT_EQ(k1.size(), 64u);
    for (char c : k1)
        EXPECT_TRUE((c >= '0' && c <= '9') ||
                    (c >= 'a' && c <= 'f'))
            << "non-hex digit in key: " << c;
}

TEST(CacheKey, EverySmFieldChangesTheKey)
{
    runner::MachineRegistry reg;
    runner::SweepSpec s =
        oneCellSweep(*reg.find("SBI+SWI"));
    core::GpuConfig base = runner::resolvedCellConfig(s, 0, 0, 0);
    const std::string base_key =
        cellCacheKey(base, "BFS", "tiny");
    size_t perturbed = 0;
    for (const ConfigField<pipeline::SMConfig> &f :
         pipeline::smConfigFields()) {
        core::GpuConfig mut = base;
        if (!perturbField(f, &mut.sm))
            continue;
        ++perturbed;
        EXPECT_NE(cellCacheKey(mut, "BFS", "tiny"), base_key)
            << "sm field '" << f.key
            << "' does not reach the cache key";
    }
    // The sweep must actually cover the table; a handful of
    // single-valued enums may legitimately be skipped.
    EXPECT_GE(perturbed, pipeline::smConfigFields().size() - 2);
}

TEST(CacheKey, EveryChipFieldChangesTheKey)
{
    runner::MachineRegistry reg;
    runner::SweepSpec s = oneCellSweep(*reg.find("SBI"));
    core::GpuConfig base = runner::resolvedCellConfig(s, 0, 0, 0);
    const std::string base_key =
        cellCacheKey(base, "BFS", "tiny");
    size_t perturbed = 0;
    for (const ConfigField<core::GpuConfig> &f :
         core::gpuConfigFields()) {
        core::GpuConfig mut = base;
        if (!perturbField(f, &mut))
            continue;
        ++perturbed;
        EXPECT_NE(cellCacheKey(mut, "BFS", "tiny"), base_key)
            << "chip field '" << f.key
            << "' does not reach the cache key";
    }
    EXPECT_GE(perturbed, core::gpuConfigFields().size() - 2);
}

TEST(CacheKey, SchemaBumpIsAMiss)
{
    runner::MachineRegistry reg;
    runner::SweepSpec s = oneCellSweep(*reg.find("SBI"));
    core::GpuConfig cfg = runner::resolvedCellConfig(s, 0, 0, 0);
    EXPECT_NE(cellCacheKey(cfg, "BFS", "tiny",
                           core::stats_schema_version + 1),
              cellCacheKey(cfg, "BFS", "tiny"));
}

TEST(CacheKey, WorkloadAndSizeChangeTheKey)
{
    runner::MachineRegistry reg;
    runner::SweepSpec s = oneCellSweep(*reg.find("SBI"));
    core::GpuConfig cfg = runner::resolvedCellConfig(s, 0, 0, 0);
    const std::string base = cellCacheKey(cfg, "BFS", "tiny");
    EXPECT_NE(cellCacheKey(cfg, "Mandelbrot", "tiny"), base);
    EXPECT_NE(cellCacheKey(cfg, "BFS", "full"), base);
}

TEST(CacheKey, AxisEntriesChangeTheKey)
{
    runner::MachineRegistry reg;
    runner::SweepSpec s = oneCellSweep(*reg.find("SBI"));
    s.sms = {1, 4};
    s.policies = {frontend::SchedPolicyKind::OldestFirst,
                  frontend::SchedPolicyKind::RoundRobin};
    runner::CellSpec base = firstCell();
    runner::CellSpec multi_sm = base;
    multi_sm.sms = 1;
    runner::CellSpec other_policy = base;
    other_policy.policy = 1;
    const std::string base_key = cellCacheKey(s, base);
    EXPECT_NE(cellCacheKey(s, multi_sm), base_key);
    EXPECT_NE(cellCacheKey(s, other_policy), base_key);
}

TEST(CacheKey, CycleSkipIsNotPartOfTheIdentity)
{
    // cycle_skip is a launch-time knob with bit-identical results
    // (core/gpu.hh), deliberately excluded from the key: a cell
    // computed with --no-skip must hit for a skipping run. The
    // key JSON being free of it is the structural guarantee.
    runner::MachineRegistry reg;
    runner::SweepSpec s = oneCellSweep(*reg.find("SBI"));
    core::GpuConfig cfg = runner::resolvedCellConfig(s, 0, 0, 0);
    std::string dump = cellKeyText(cfg, "BFS", "tiny");
    EXPECT_EQ(dump.find("cycle_skip"), std::string::npos);
}

TEST(CacheKey, MachineFileSetAndRegistryRoutesAgree)
{
    // The same cell described three ways: a registry machine
    // mutated via the --set path, a machine-file style JSON
    // object with a "set" block, and a whole spec document. All
    // three must resolve to the same key.
    runner::MachineRegistry reg;

    runner::MachineSpec via_set = *reg.find("SBI+SWI");
    std::string err;
    ASSERT_TRUE(runner::machineApplyKeyValue(
        &via_set, "cct_capacity=16", &err))
        << err;

    Json jm = Json::object();
    jm.set("name", Json("tweaked"));
    jm.set("base", Json("SBI+SWI"));
    Json set = Json::object();
    set.set("cct_capacity", Json(16));
    jm.set("set", std::move(set));
    runner::MachineSpec via_file;
    ASSERT_TRUE(runner::machineFromJson(jm, ".", reg, &via_file,
                                        &err))
        << err;

    std::string spec_text = R"({
        "name": "key_test",
        "sweeps": [{
            "name": "key_test",
            "machines": [{"name": "tweaked", "base": "SBI+SWI",
                          "set": {"cct_capacity": 16}}],
            "workloads": ["BFS"],
            "size": "tiny"
        }]
    })";
    Json jspec = Json::parse(spec_text, &err);
    ASSERT_TRUE(err.empty()) << err;
    runner::MachineRegistry spec_reg;
    std::vector<runner::SweepSpec> spec_sweeps;
    std::string label;
    ASSERT_TRUE(runner::sweepsFromSpecJson(
        jspec, ".", &spec_reg, &spec_sweeps, &label, &err))
        << err;
    ASSERT_EQ(spec_sweeps.size(), 1u);

    const std::string k_set =
        cellCacheKey(oneCellSweep(via_set), firstCell());
    const std::string k_file =
        cellCacheKey(oneCellSweep(via_file), firstCell());
    const std::string k_spec =
        cellCacheKey(spec_sweeps[0], firstCell());
    EXPECT_EQ(k_set, k_file);
    EXPECT_EQ(k_set, k_spec);

    // And the mutation mattered: the untweaked machine differs.
    EXPECT_NE(k_set, cellCacheKey(
                         oneCellSweep(*reg.find("SBI+SWI")),
                         firstCell()));
}
