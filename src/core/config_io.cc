#include "core/config_io.hh"

#include <vector>

#include "pipeline/config_io.hh"

namespace siwi::core {

namespace {

#define F_U32(key, member, doc) \
    SIWI_CFG_U32(GpuConfig, key, member, doc)

/** Chip-level fields; the nested SMConfig has its own table. */
const std::vector<ConfigField<GpuConfig>> &
fieldTable()
{
    static const std::vector<ConfigField<GpuConfig>> v = {
        F_U32("num_sms", num_sms, "SM instances on the chip"),
        F_U32("l2_size_bytes", l2.size_bytes,
              "shared L2 size in bytes"),
        F_U32("l2_ways", l2.ways, "shared L2 associativity"),
        F_U32("l2_hit_latency", l2.hit_latency,
              "interconnect + L2 access latency in cycles"),
        F_U32("l2_slices", l2.slices,
              "address-interleaved L2 slices (power of two "
              "dividing the set count; 1 = monolithic legacy L2)"),
        F_U32("l2_mshrs_per_slice", l2.mshrs_per_slice,
              "in-flight misses tracked per L2 slice (fills "
              "install tags on completion, same-block requests "
              "merge; 0 = legacy immediate tag install)"),
        F_U32("l2_tag_cycles", l2.tag_cycles,
              "cycles a slice tag pipeline is busy per lookup "
              "(0 = fully pipelined)"),
        F_U32("dram_bytes_per_cycle_x10",
              dram.bytes_per_cycle_x10,
              "per-channel DRAM bandwidth in 0.1 byte/cycle units "
              "(100 = the paper's 10 GB/s)"),
        F_U32("dram_latency_cycles", dram.latency_cycles,
              "flat DRAM access latency in cycles"),
        F_U32("dram_channels", dram.channels,
              "interleaved chip DRAM channels (power of two; "
              "total bandwidth scales with the channel count)"),
        F_U32("dram_queue_depth", dram.queue_depth,
              "outstanding transactions per DRAM channel before "
              "new requests stall (0 = unbounded)"),
        F_U32("noc_request_latency", noc.request_latency,
              "SM->L2 interconnect request latency in cycles"),
        F_U32("noc_response_latency", noc.response_latency,
              "L2->SM interconnect response latency in cycles"),
        F_U32("noc_port_bytes_per_cycle_x10",
              noc.port_bytes_per_cycle_x10,
              "per-SM interconnect-port injection bandwidth in "
              "0.1 byte/cycle units (0 = unlimited crossbar)"),
    };
    return v;
}

#undef F_U32

} // namespace

std::span<const ConfigField<GpuConfig>>
gpuConfigFields()
{
    return fieldTable();
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
