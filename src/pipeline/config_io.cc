#include "pipeline/config_io.hh"

namespace siwi::pipeline {

std::span<const ConfigField<SMConfig>>
smConfigFields()
{
    static const ConfigField<SMConfig> fields[] = {
        SIWI_SM_CONFIG_FIELDS(SIWI_CFG_FIELD, SIWI_CFG_FIELD, , )};
    return fields;
}

void
writeJson(JsonWriter &w, const SMConfig &c)
{
    w.beginObject();
    writeConfigMembers<SMConfig>(w, c, smConfigFields());
    w.endObject();
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

bool
operator==(const SMConfig &a, const SMConfig &b)
{
    return configEqual<SMConfig>(a, b, smConfigFields());
}

} // namespace siwi::pipeline
