#include "serve/cache_key.hh"

#include "common/sha256.hh"
#include "runner/results.hh"

namespace siwi::serve {

std::string
cellKeyText(const core::GpuConfig &resolved,
            std::string_view workload, std::string_view size,
            int schema_version)
{
    // Member order is part of the canonical form: members are
    // written in call order and the config dump is in table order,
    // so the same cell always serializes to the same bytes.
    std::string text;
    JsonWriter w(text, -1);
    w.beginObject();
    w.key("siwi_cache_key").value(cache_key_version);
    w.key("stats_schema").value(schema_version);
    w.key("workload").value(workload);
    w.key("size").value(size);
    w.key("config");
    core::writeJson(w, resolved);
    w.endObject();
    return text;
}

std::string
cellCacheKey(const core::GpuConfig &resolved,
             std::string_view workload, std::string_view size,
             int schema_version)
{
    return sha256Hex(
        cellKeyText(resolved, workload, size, schema_version));
}

std::string
cellCacheKey(const runner::SweepSpec &sweep,
             const runner::CellSpec &cell)
{
    // The exact chip runCell() will build — policy override and
    // chip_sets applied — so key identity matches run identity.
    core::GpuConfig chip = runner::resolvedCellConfig(
        sweep, cell.machine, cell.sms, cell.policy);
    return cellCacheKey(chip, sweep.wls[cell.wl]->name(),
                        runner::sizeClassName(sweep.size));
}

} // namespace siwi::serve
