#include "runner/spec.hh"

#include <algorithm>
#include <filesystem>

#include "pipeline/config_io.hh"

namespace siwi::runner {

namespace {

namespace fs = std::filesystem;

std::string
joinPath(const std::string &base_dir, const std::string &path)
{
    fs::path p(path);
    if (p.is_absolute() || base_dir.empty())
        return path;
    return (fs::path(base_dir) / p).string();
}

/** The valid-name list for an "unknown machine" diagnostic. */
std::string
knownMachineNames(const MachineRegistry &reg)
{
    std::string out;
    for (const MachineSpec &m : reg.machines()) {
        if (!out.empty())
            out += ", ";
        out += m.name;
    }
    return out;
}

/**
 * Reject unknown members of object @p j: every key must appear in
 * @p allowed. Returns the diagnostic to keep call sites short.
 */
bool
checkKeys(const Json &j,
          std::initializer_list<const char *> allowed,
          const char *what, std::string *err)
{
    for (const Json::Member &m : j.obj()) {
        bool known = false;
        for (const char *a : allowed) {
            if (m.first == a) {
                known = true;
                break;
            }
        }
        if (!known) {
            if (err)
                *err = std::string(what) + ": unknown key '" +
                       m.first + "'";
            return false;
        }
    }
    return true;
}

} // namespace

MachineRegistry::MachineRegistry()
{
    for (size_t i = 0; i < std::size(pipeline::pipeline_mode_names);
         ++i)
        machines_.push_back(
            {pipeline::pipeline_mode_names[i],
             pipeline::SMConfig::make(pipeline::PipelineMode(i))});
}

bool
MachineRegistry::add(MachineSpec m, std::string *err)
{
    if (const MachineSpec *existing = find(m.name)) {
        if (err)
            *err = "machine name '" + m.name +
                   "' is already registered (as '" +
                   existing->name + "')";
        return false;
    }
    machines_.push_back(std::move(m));
    return true;
}

const MachineSpec *
MachineRegistry::find(std::string_view name) const
{
    for (const MachineSpec &m : machines_) {
        if (configNameEquals(name, m.name))
            return &m;
    }
    return nullptr;
}

bool
machineFromJson(const Json &j, const std::string &base_dir,
                const MachineRegistry &reg, MachineSpec *out,
                std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "machine: expected a JSON object";
        return false;
    }
    if (const Json *file = j.find("file")) {
        if (!checkKeys(j, {"file"}, "machine", err))
            return false;
        if (!file->isString()) {
            if (err)
                *err = "machine: 'file' needs a path string";
            return false;
        }
        return loadMachineFile(joinPath(base_dir, file->str()),
                               reg, out, err);
    }
    if (!checkKeys(j, {"name", "base", "set"}, "machine", err))
        return false;
    const Json *base = j.find("base");
    if (!base || !base->isString()) {
        if (err)
            *err = "machine: needs a 'base' machine name";
        return false;
    }
    const MachineSpec *b = reg.find(base->str());
    if (!b) {
        if (err)
            *err = "machine: unknown base '" + base->str() +
                   "' (known: " + knownMachineNames(reg) + ")";
        return false;
    }
    MachineSpec m = *b;
    m.name = j.getString("name");
    if (m.name.empty()) {
        if (err)
            *err = "machine: needs a 'name'";
        return false;
    }
    if (const Json *set = j.find("set")) {
        if (!machineApplyJson(&m, *set, err)) {
            if (err)
                *err = "machine '" + m.name + "': " + *err;
            return false;
        }
    }
    std::string inv = m.config.checkInvariants();
    if (!inv.empty()) {
        if (err)
            *err = "machine '" + m.name + "': " + inv;
        return false;
    }
    *out = std::move(m);
    return true;
}

bool
loadMachineFile(const std::string &path,
                const MachineRegistry &reg, MachineSpec *out,
                std::string *err)
{
    std::string parse_err;
    Json j = Json::parseFile(path, &parse_err);
    if (!parse_err.empty()) {
        if (err)
            *err = parse_err;
        return false;
    }
    if (!j.isObject()) {
        if (err)
            *err = path + ": expected a machine object";
        return false;
    }
    // No file-to-file indirection: it buys nothing a spec's
    // "machines" section does not, and a self-reference would
    // recurse forever.
    if (j.find("file")) {
        if (err)
            *err = path +
                   ": a machine file cannot reference another "
                   "machine file";
        return false;
    }
    // Default the name to the file stem, so small machine files
    // need only "base" and "set".
    if (!j.find("name"))
        j.set("name", Json(fs::path(path).stem().string()));
    std::string parent = fs::path(path).parent_path().string();
    if (!machineFromJson(j, parent, reg, out, err)) {
        if (err)
            *err = path + ": " + *err;
        return false;
    }
    return true;
}

namespace {

bool
sweepFromJson(const Json &j, const std::string &base_dir,
              const MachineRegistry &reg, SweepSpec *out,
              std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "sweep: expected a JSON object";
        return false;
    }
    if (!checkKeys(j,
                   {"name", "machines", "workloads", "size",
                    "sms", "policies", "set"},
                   "sweep", err))
        return false;
    SweepSpec s;
    s.name = j.getString("name");
    if (s.name.empty()) {
        if (err)
            *err = "sweep: needs a non-empty 'name'";
        return false;
    }
    auto fail = [&](const std::string &msg) {
        if (err)
            *err = "sweep '" + s.name + "': " + msg;
        return false;
    };

    // --- machines ---
    const Json *jm = j.find("machines");
    if (!jm || !jm->isArray() || jm->arr().empty())
        return fail("needs a non-empty 'machines' array");
    for (const Json &e : jm->arr()) {
        MachineSpec m;
        if (e.isString()) {
            const MachineSpec *r = reg.find(e.str());
            if (!r) {
                return fail("unknown machine '" + e.str() +
                            "' (known: " +
                            knownMachineNames(reg) + ")");
            }
            m = *r;
        } else {
            std::string merr;
            if (!machineFromJson(e, base_dir, reg, &m, &merr))
                return fail(merr);
        }
        for (const MachineSpec &prev : s.machines) {
            if (configNameEquals(prev.name, m.name))
                return fail("duplicate machine '" + m.name + "'");
        }
        s.machines.push_back(std::move(m));
    }

    // --- workloads ---
    const Json *jw = j.find("workloads");
    if (!jw || !jw->isArray() || jw->arr().empty())
        return fail("needs a non-empty 'workloads' array");
    auto addWorkload = [&](const workloads::Workload *w) {
        if (std::find(s.wls.begin(), s.wls.end(), w) !=
            s.wls.end())
            return fail("duplicate workload '" +
                        std::string(w->name()) + "'");
        s.wls.push_back(w);
        return true;
    };
    for (const Json &e : jw->arr()) {
        if (!e.isString())
            return fail("workload entries must be names");
        const std::string &name = e.str();
        std::vector<const workloads::Workload *> group;
        if (name == "regular") {
            group = workloads::regularWorkloads();
        } else if (name == "irregular") {
            group = workloads::irregularWorkloads();
        } else if (name == "all") {
            group = workloads::allWorkloads();
        } else if (const workloads::Workload *w =
                       workloads::findWorkload(name)) {
            group = {w};
        } else {
            return fail("unknown workload '" + name +
                        "' (a name, or regular | irregular | "
                        "all)");
        }
        for (const workloads::Workload *w : group) {
            if (!addWorkload(w))
                return false;
        }
    }

    // --- size ---
    std::string size_str = j.getString("size", "full");
    if (!enumIndex(workloads::size_class_names, size_str, &s.size))
        return fail("bad size '" + size_str + "' (" +
                    enumNameList(workloads::size_class_names) +
                    ")");

    // --- sms axis ---
    if (const Json *js = j.find("sms")) {
        if (!js->isArray() || js->arr().empty())
            return fail("'sms' needs a non-empty array");
        s.sms.clear();
        for (const Json &e : js->arr()) {
            if (!e.isInt() || e.integer() < 1 ||
                e.integer() > 1024)
                return fail("'sms' entries must be integers in "
                            "1..1024");
            s.sms.push_back(unsigned(e.integer()));
        }
    }

    // --- policy axis ---
    if (const Json *jp = j.find("policies")) {
        if (!jp->isArray() || jp->arr().empty())
            return fail("'policies' needs a non-empty array");
        s.policies.clear();
        for (const Json &e : jp->arr()) {
            frontend::SchedPolicyKind kind;
            if (!e.isString() ||
                !enumIndex(frontend::sched_policy_names, e.str(),
                           &kind))
                return fail(
                    "bad policy (" +
                    enumNameList(frontend::sched_policy_names) +
                    ")");
            s.policies.push_back(kind);
        }
    }

    // --- per-sweep overrides ---
    if (const Json *set = j.find("set")) {
        for (MachineSpec &m : s.machines) {
            std::string serr;
            if (!machineApplyJson(&m, *set, &serr))
                return fail(serr);
        }
    }
    std::string bad = checkSweep(s);
    if (!bad.empty()) {
        if (err)
            *err = bad;
        return false;
    }
    *out = std::move(s);
    return true;
}

} // namespace

bool
sweepsFromSpecJson(const Json &j, const std::string &base_dir,
                   MachineRegistry *reg,
                   std::vector<SweepSpec> *out, std::string *label,
                   std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "spec: expected a JSON object";
        return false;
    }
    if (!checkKeys(j, {"name", "machines", "sweeps"}, "spec", err))
        return false;
    std::string name = j.getString("name");
    if (name.empty()) {
        if (err)
            *err = "spec: needs a non-empty 'name'";
        return false;
    }
    if (const Json *jm = j.find("machines")) {
        if (!jm->isArray()) {
            if (err)
                *err = "spec: 'machines' must be an array";
            return false;
        }
        for (const Json &e : jm->arr()) {
            MachineSpec m;
            if (!machineFromJson(e, base_dir, *reg, &m, err))
                return false;
            if (!reg->add(std::move(m), err))
                return false;
        }
    }
    const Json *js = j.find("sweeps");
    if (!js || !js->isArray() || js->arr().empty()) {
        if (err)
            *err = "spec: needs a non-empty 'sweeps' array";
        return false;
    }
    std::vector<SweepSpec> sweeps;
    for (const Json &e : js->arr()) {
        SweepSpec s;
        if (!sweepFromJson(e, base_dir, *reg, &s, err))
            return false;
        for (const SweepSpec &prev : sweeps) {
            if (prev.name == s.name) {
                if (err)
                    *err = "spec: duplicate sweep name '" +
                           s.name + "'";
                return false;
            }
        }
        sweeps.push_back(std::move(s));
    }
    *out = std::move(sweeps);
    *label = std::move(name);
    return true;
}

bool
loadSpecFile(const std::string &path, MachineRegistry *reg,
             std::vector<SweepSpec> *out, std::string *label,
             std::string *err)
{
    std::string parse_err;
    Json j = Json::parseFile(path, &parse_err);
    if (!parse_err.empty()) {
        if (err)
            *err = parse_err;
        return false;
    }
    std::string parent = fs::path(path).parent_path().string();
    if (!sweepsFromSpecJson(j, parent, reg, out, label, err)) {
        if (err)
            *err = path + ": " + *err;
        return false;
    }
    return true;
}

} // namespace siwi::runner
