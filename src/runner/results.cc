#include "runner/results.hh"

#include <algorithm>

#include "core/config_io.hh"
#include "core/stats_io.hh"

namespace siwi::runner {

const MachineRecord *
Results::findMachine(const std::string &sweep,
                     const std::string &machine) const
{
    for (const MachineRecord &m : machines) {
        if (m.sweep == sweep && m.machine == machine)
            return &m;
    }
    return nullptr;
}

Json
machinesToJson(const std::vector<MachineRecord> &machines)
{
    Json jm = Json::array();
    for (const MachineRecord &m : machines) {
        Json e = Json::object();
        e.set("sweep", Json(m.sweep));
        e.set("machine", Json(m.machine));
        e.set("config", core::gpuConfigToJson(m.config));
        jm.push(std::move(e));
    }
    return jm;
}

const CellResult *
Results::find(const std::string &sweep, const std::string &machine,
              const std::string &workload) const
{
    for (const CellResult &c : cells) {
        if (c.sweep == sweep && c.machine == machine &&
            c.workload == workload)
            return &c;
    }
    return nullptr;
}

std::vector<std::string>
Results::sweepNames() const
{
    std::vector<std::string> names;
    for (const CellResult &c : cells) {
        if (std::find(names.begin(), names.end(), c.sweep) ==
            names.end())
            names.push_back(c.sweep);
    }
    return names;
}

std::vector<const CellResult *>
Results::sweepCells(const std::string &sweep) const
{
    std::vector<const CellResult *> out;
    for (const CellResult &c : cells) {
        if (c.sweep == sweep)
            out.push_back(&c);
    }
    return out;
}

size_t
Results::verificationFailures() const
{
    size_t n = 0;
    for (const CellResult &c : cells)
        n += !c.verified;
    return n;
}

size_t
Results::timeouts() const
{
    size_t n = 0;
    for (const CellResult &c : cells)
        n += c.timed_out;
    return n;
}

Json
cellToJson(const CellResult &c)
{
    Json jc = Json::object();
    jc.set("sweep", Json(c.sweep));
    jc.set("machine", Json(c.machine));
    jc.set("workload", Json(c.workload));
    jc.set("size", Json(c.size));
    jc.set("num_sms", Json(c.num_sms));
    jc.set("policy", Json(c.policy));
    jc.set("excluded_from_means", Json(c.excluded_from_means));
    jc.set("verified", Json(c.verified));
    if (!c.verified)
        jc.set("verify_msg", Json(c.verify_msg));
    jc.set("timed_out", Json(c.timed_out));
    jc.set("ipc", Json(c.ipc));
    jc.set("stats", core::statsToJson(c.stats));
    return jc;
}

bool
cellFromJson(const Json &jc, CellResult *out, std::string *err)
{
    if (!jc.isObject()) {
        if (err)
            *err = "results: cell entry must be an object";
        return false;
    }
    CellResult c;
    c.sweep = jc.getString("sweep");
    c.machine = jc.getString("machine");
    c.workload = jc.getString("workload");
    c.size = jc.getString("size");
    c.num_sms = unsigned(jc.getInt("num_sms", 1));
    c.policy = jc.getString("policy");
    c.excluded_from_means = jc.getBool("excluded_from_means");
    c.verified = jc.getBool("verified");
    c.verify_msg = jc.getString("verify_msg");
    c.timed_out = jc.getBool("timed_out");
    c.ipc = jc.getDouble("ipc");
    const Json *stats = jc.find("stats");
    if (!stats) {
        if (err)
            *err = "results: cell '" + c.machine + "/" +
                   c.workload + "' lacks 'stats'";
        return false;
    }
    if (!core::statsFromJson(*stats, &c.stats, err))
        return false;
    *out = std::move(c);
    return true;
}

Json
Results::toJson() const
{
    Json j = Json::object();
    j.set("schema_version", Json(core::stats_schema_version));
    j.set("generator", Json("siwi-run"));
    j.set("suite", Json(suite));
    j.set("machines", machinesToJson(machines));
    Json arr = Json::array();
    for (const CellResult &c : cells)
        arr.push(cellToJson(c));
    j.set("cells", std::move(arr));
    return j;
}

std::string
Results::toJsonText() const
{
    return toJson().dump(2) + "\n";
}

bool
Results::fromJson(const Json &j, Results *out, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "results: expected a JSON object";
        return false;
    }
    i64 version = j.getInt("schema_version", -1);
    if (version != core::stats_schema_version) {
        if (err)
            *err = "results: schema_version " +
                   std::to_string(version) + " != supported " +
                   std::to_string(core::stats_schema_version);
        return false;
    }
    Results r;
    r.suite = j.getString("suite");
    if (const Json *jm = j.find("machines")) {
        if (!jm->isArray()) {
            if (err)
                *err = "results: 'machines' must be an array";
            return false;
        }
        for (const Json &je : jm->arr()) {
            if (!je.isObject()) {
                if (err)
                    *err = "results: machine entry must be an "
                           "object";
                return false;
            }
            MachineRecord m;
            m.sweep = je.getString("sweep");
            m.machine = je.getString("machine");
            const Json *cfg = je.find("config");
            if (!cfg) {
                if (err)
                    *err = "results: machine entry '" +
                           m.machine + "' lacks 'config'";
                return false;
            }
            if (!core::gpuConfigApplyJson(*cfg, &m.config, err))
                return false;
            r.machines.push_back(std::move(m));
        }
    }
    const Json *arr = j.find("cells");
    if (!arr || !arr->isArray()) {
        if (err)
            *err = "results: missing 'cells' array";
        return false;
    }
    for (const Json &jc : arr->arr()) {
        CellResult c;
        if (!cellFromJson(jc, &c, err))
            return false;
        r.cells.push_back(std::move(c));
    }
    *out = std::move(r);
    return true;
}

bool
Results::load(const std::string &path, Results *out,
              std::string *err)
{
    std::string parse_err;
    Json j = Json::parseFile(path, &parse_err);
    if (!parse_err.empty()) {
        if (err)
            *err = parse_err;
        return false;
    }
    return fromJson(j, out, err);
}

bool
Results::save(const std::string &path, std::string *err) const
{
    return toJson().writeFile(path, 2, err);
}

const char *
sizeClassName(workloads::SizeClass sc)
{
    return workloads::size_class_names[size_t(sc)];
}

} // namespace siwi::runner
