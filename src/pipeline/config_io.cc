#include "pipeline/config_io.hh"

#include <vector>

namespace siwi::pipeline {

namespace {

// Field-definition shorthand over the shared SIWI_CFG_* macros
// (common/config_reflect.hh). U32 fields accept any unsigned
// integral member; enums store their index.
#define F_U32(key, member, doc) \
    SIWI_CFG_U32(SMConfig, key, member, doc)
#define F_BOOL(key, member, doc) \
    SIWI_CFG_BOOL(SMConfig, key, member, doc)
#define F_ENUM(key, member, names, doc) \
    SIWI_CFG_ENUM(SMConfig, key, member, names, doc)

/**
 * The one table. Order is the serialization order of
 * smConfigToJson() and the row order of docs/CONFIG.md. Every
 * data member of SMConfig (including the nested heap/mem structs)
 * must appear here: a member missing from the table is invisible
 * to spec files, machine files, results artifacts and
 * operator== alike.
 */
const std::vector<ConfigField<SMConfig>> &
fieldTable()
{
    static const std::vector<ConfigField<SMConfig>> v = {
        // --- machine geometry ---
        F_U32("warp_width", warp_width,
              "threads per warp (32 = Fermi, 64 = interweaving "
              "machines)"),
        F_U32("num_warps", num_warps,
              "resident warps per SM"),
        F_U32("num_pools", num_pools,
              "independent scheduler pools (1 or 2)"),
        F_U32("mad_groups", mad_groups,
              "number of MAD SIMD groups"),
        F_U32("mad_width", mad_width, "lanes per MAD group"),
        F_U32("sfu_width", sfu_width, "SFU lanes"),
        F_U32("lsu_width", lsu_width, "LSU lanes"),
        // --- divergence handling ---
        F_ENUM("reconv", reconv, reconv_names,
               "divergence-tracking substrate"),
        F_BOOL("sbi", sbi,
               "secondary front-end over CPC2 contexts "
               "(paper 3.3)"),
        F_BOOL("swi", swi,
               "cascaded mask-fit secondary scheduler (paper 4; "
               "Table 2's 2-cycle scheduler)"),
        F_BOOL("sbi_constraints", sbi_constraints,
               "honor SYNC selective synchronization barriers"),
        F_BOOL("sbi_secondary_fallback", sbi_secondary_fallback,
               "SBI secondary may issue another warp's primary "
               "context (docs/DESIGN.md)"),
        F_BOOL("split_on_memory_divergence",
               split_on_memory_divergence,
               "DWS-style warp-splits on memory divergence "
               "(paper 3.4)"),
        F_U32("cct_capacity", heap.cct_capacity,
              "Cold Context Table entries per warp"),
        F_U32("cct_steps_per_cycle", heap.cct_steps_per_cycle,
              "CCT sideband-sorter steps per cycle"),
        // --- scheduling ---
        F_ENUM("sched_policy", sched_policy,
               frontend::sched_policy_names,
               "primary-scheduler candidate ordering (the "
               "machine's default; a non-default `policies` axis "
               "entry overrides it)"),
        F_ENUM("lane_shuffle", shuffle, lane_shuffle_names,
               "static SWI lane-shuffle policy (paper Table 1)"),
        F_U32("lookup_sets", lookup_sets,
              "mask-inclusion lookup sets; 1 = fully "
              "associative, num_warps = direct mapped"),
        // --- timing (Table 2) ---
        F_U32("delivery_latency", delivery_latency,
              "instruction-delivery stage cycles"),
        F_U32("exec_latency", exec_latency,
              "execution latency in cycles"),
        F_U32("scoreboard_entries", scoreboard_entries,
              "scoreboard entries per warp"),
        // --- memory ---
        F_U32("l1_size_bytes", mem.l1.size_bytes,
              "L1 data cache size in bytes"),
        F_U32("l1_ways", mem.l1.ways, "L1 associativity"),
        F_U32("l1_block_bytes", mem.l1.block_bytes,
              "L1 block size in bytes"),
        F_U32("l1_hit_latency", mem.l1.hit_latency,
              "L1 hit latency in cycles"),
        F_U32("mshrs", mem.mshrs,
              "max in-flight missed blocks"),
        F_U32("write_buffer_entries", mem.write_buffer_entries,
              "write-combining buffer entries"),
        // --- occupancy ---
        F_U32("max_blocks_resident", max_blocks_resident,
              "thread blocks resident per SM"),
    };
    return v;
}

#undef F_U32
#undef F_BOOL
#undef F_ENUM

} // namespace

std::span<const ConfigField<SMConfig>>
smConfigFields()
{
    return fieldTable();
}

Json
smConfigToJson(const SMConfig &c)
{
    return configToJson<SMConfig>(c, smConfigFields());
}

bool
smConfigApplyJson(const Json &j, SMConfig *c, std::string *err)
{
    return configApplyJson<SMConfig>(j, smConfigFields(), c, err);
}

bool
smConfigApplyKeyValue(std::string_view kv, SMConfig *c,
                      std::string *err)
{
    return configApplyKeyValue<SMConfig>(kv, smConfigFields(), c,
                                         err);
}

Json
smConfigSchema()
{
    return configSchema<SMConfig>(SMConfig{}, smConfigFields());
}

bool
operator==(const SMConfig &a, const SMConfig &b)
{
    return configEqual<SMConfig>(a, b, smConfigFields());
}

} // namespace siwi::pipeline
