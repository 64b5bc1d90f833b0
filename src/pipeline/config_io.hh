/**
 * @file
 * The SMConfig field table: every Table 2 knob and mode switch as
 * data (common/config_reflect.hh), expanded from the field list in
 * pipeline/config.hh and driving JSON read/write, --set style
 * key=value parsing, operator==, the range checks and the schema
 * dump that docs/CONFIG.md's SM table renders.
 *
 * Nested members are exposed under flat keys (heap.cct_capacity as
 * "cct_capacity", mem.l1.size_bytes as "l1_size_bytes", ...) so
 * spec files and the CLI address one flat namespace.
 */

#ifndef SIWI_PIPELINE_CONFIG_IO_HH
#define SIWI_PIPELINE_CONFIG_IO_HH

#include <string>

#include "common/config_reflect.hh"
#include "pipeline/config.hh"

namespace siwi::pipeline {

/** Every serializable field of SMConfig, in schema order. */
std::span<const ConfigField<SMConfig>> smConfigFields();

/** Full dump of @p c, one member per table field. */
void writeJson(JsonWriter &w, const SMConfig &c);

/**
 * Apply JSON object @p j (a full dump or a partial "set" block)
 * onto @p c. Unknown keys, type mismatches and bad enum names are
 * strict errors naming the key; @p c is unchanged on failure.
 */
bool smConfigApplyJson(const Json &j, SMConfig *c,
                       std::string *err);

/** Apply one "key=value" mutation (the --set / "set" path). */
bool smConfigApplyKeyValue(std::string_view kv, SMConfig *c,
                           std::string *err);

} // namespace siwi::pipeline

#endif // SIWI_PIPELINE_CONFIG_IO_HH
