#include "pipeline/config_io.hh"

namespace siwi::pipeline {

std::span<const ConfigField<SMConfig>>
smConfigFields()
{
    static const ConfigField<SMConfig> fields[] = {
        SIWI_SM_CONFIG_FIELDS(SIWI_CFG_FIELD, SIWI_CFG_FIELD, , )};
    return fields;
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
