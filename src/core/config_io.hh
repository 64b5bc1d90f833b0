/**
 * @file
 * The GpuConfig (chip-level) field table, companion to
 * pipeline/config_io.hh: chip topology and shared-L2/DRAM knobs as
 * data, expanded from the field list in core/gpu.hh.
 * gpuConfigToJson() nests the full SMConfig dump under "sm", so one
 * JSON block is the complete, re-runnable description of a
 * simulated machine — this is the config block the experiment
 * runner embeds into every results artifact.
 */

#ifndef SIWI_CORE_CONFIG_IO_HH
#define SIWI_CORE_CONFIG_IO_HH

#include <string>

#include "common/config_reflect.hh"
#include "core/gpu.hh"

namespace siwi::core {

/** The chip-level fields of GpuConfig (the "sm" block has its
 *  own table, pipeline::smConfigFields()). */
std::span<const ConfigField<GpuConfig>> gpuConfigFields();

/** Full dump: chip fields in table order, then "sm". */
Json gpuConfigToJson(const GpuConfig &c);

/**
 * Apply JSON object @p j onto @p c: chip keys via the table, an
 * optional "sm" member via the SMConfig table. Unknown keys, type
 * mismatches and bad enum names are strict errors naming the key;
 * @p c is unchanged on failure.
 */
bool gpuConfigApplyJson(const Json &j, GpuConfig *c,
                        std::string *err);

/**
 * Apply one "key=value" chip-level override through the table
 * (the companion of pipeline::smConfigApplyKeyValue for GpuConfig
 * fields). Unknown keys and bad values are soft errors; @p c is
 * unchanged on failure.
 */
bool gpuConfigApplyKeyValue(std::string_view kv, GpuConfig *c,
                            std::string *err);

/** Schema dump of the chip-level fields. */
Json gpuConfigSchema();

} // namespace siwi::core

#endif // SIWI_CORE_CONFIG_IO_HH
