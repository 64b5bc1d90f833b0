#include "core/config_io.hh"

#include "pipeline/config_io.hh"

namespace siwi::core {

std::span<const ConfigField<GpuConfig>>
gpuConfigFields()
{
    static const ConfigField<GpuConfig> fields[] = {
        SIWI_GPU_CONFIG_FIELDS(SIWI_CFG_FIELD, SIWI_CFG_FIELD, , )};
    return fields;
}

Json
gpuConfigToJson(const GpuConfig &c)
{
    Json j = configToJson<GpuConfig>(c, gpuConfigFields());
    j.set("sm", pipeline::smConfigToJson(c.sm));
    return j;
}

bool
gpuConfigApplyJson(const Json &j, GpuConfig *c, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "config: expected a JSON object";
        return false;
    }
    GpuConfig tmp = *c;
    // Split the members: "sm" goes through the SMConfig table,
    // everything else through the chip table (which rejects
    // unknown keys).
    Json chip = Json::object();
    for (const Json::Member &m : j.obj()) {
        if (m.first == "sm") {
            if (!pipeline::smConfigApplyJson(m.second, &tmp.sm,
                                             err))
                return false;
        } else {
            chip.set(m.first, m.second);
        }
    }
    if (!configApplyJson<GpuConfig>(chip, gpuConfigFields(), &tmp,
                                    err))
        return false;
    *c = tmp;
    return true;
}

bool
gpuConfigApplyKeyValue(std::string_view kv, GpuConfig *c,
                       std::string *err)
{
    return configApplyKeyValue<GpuConfig>(kv, gpuConfigFields(), c,
                                          err);
}

Json
gpuConfigSchema()
{
    return configSchema<GpuConfig>(GpuConfig{}, gpuConfigFields());
}

bool
operator==(const GpuConfig &a, const GpuConfig &b)
{
    return configEqual<GpuConfig>(a, b, gpuConfigFields()) &&
           a.sm == b.sm;
}

} // namespace siwi::core
