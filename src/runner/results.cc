#include "runner/results.hh"

#include <algorithm>
#include <limits>

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

void
writeJson(JsonWriter &w, const MachineRecord &m)
{
    w.beginObject();
    w.key("sweep").value(m.sweep);
    w.key("machine").value(m.machine);
    w.key("config");
    core::writeJson(w, m.config);
    w.endObject();
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

void
writeJson(JsonWriter &w, const CellResult &c)
{
    w.beginObject();
    w.key("sweep").value(c.sweep);
    w.key("machine").value(c.machine);
    w.key("workload").value(c.workload);
    w.key("size").value(c.size);
    w.key("num_sms").value(c.num_sms);
    w.key("policy").value(c.policy);
    w.key("excluded_from_means").value(c.excluded_from_means);
    w.key("verified").value(c.verified);
    if (!c.verified)
        w.key("verify_msg").value(c.verify_msg);
    w.key("timed_out").value(c.timed_out);
    w.key("ipc").value(c.ipc);
    w.key("stats");
    core::writeJson(w, c.stats);
    w.endObject();
}

Json
cellToJson(const CellResult &c)
{
    return jsonValue(c);
}

namespace {

/**
 * "results: <entry>: <msg>" into @p err. <entry> names entry @p j
 * of @p kind ("cell" or "machine"; nullptr for the document
 * itself, which takes no name) by its labels as far as they are
 * strings, so that an error points at it even when a label is the
 * fault. @return false.
 */
bool
fail(const Json &j, const char *kind, const std::string &msg,
     std::string *err)
{
    if (!err)
        return false;
    *err = "results: ";
    if (kind) {
        *err += std::string(kind) + " '" + j.getString("sweep", "?");
        *err += '/';
        *err += j.getString("machine", "?");
        if (std::string_view(kind) == "cell") {
            *err += '/';
            *err += j.getString("workload", "?");
        }
        *err += "': ";
    }
    *err += msg;
    return false;
}

/** fail() with "'<key>' must be <need>". */
bool
badMember(const Json &j, const char *kind, const char *key,
          const char *need, std::string *err)
{
    return fail(j, kind, std::string("'") + key + "' must be " + need,
                err);
}

/** String member @p key of entry @p j of @p kind into @p out. */
bool
getLabel(const Json &j, const char *kind, const char *key,
         std::string *out, std::string *err)
{
    const Json *v = j.find(key);
    if (!v || !v->isString())
        return badMember(j, kind, key, "a string", err);
    *out = v->str();
    return true;
}

/** Bool member @p key of entry @p j of @p kind into @p out. */
bool
getFlag(const Json &j, const char *kind, const char *key, bool *out,
        std::string *err)
{
    const Json *v = j.find(key);
    if (!v || !v->isBool())
        return badMember(j, kind, key, "true or false", err);
    *out = v->boolean();
    return true;
}

} // namespace

bool
cellFromJson(const Json &jc, CellResult *out, std::string *err)
{
    if (!jc.isObject()) {
        if (err)
            *err = "results: cell entry must be an object";
        return false;
    }
    const char *cell = "cell";
    CellResult c;
    if (!getLabel(jc, cell, "sweep", &c.sweep, err) ||
        !getLabel(jc, cell, "machine", &c.machine, err) ||
        !getLabel(jc, cell, "workload", &c.workload, err) ||
        !getLabel(jc, cell, "size", &c.size, err) ||
        !getLabel(jc, cell, "policy", &c.policy, err) ||
        !getFlag(jc, cell, "excluded_from_means",
                 &c.excluded_from_means, err) ||
        !getFlag(jc, cell, "verified", &c.verified, err) ||
        !getFlag(jc, cell, "timed_out", &c.timed_out, err))
        return false;
    const Json *sms = jc.find("num_sms");
    if (!sms || !sms->isInt() || sms->integer() < 1 ||
        u64(sms->integer()) > std::numeric_limits<unsigned>::max())
        return badMember(jc, cell, "num_sms", "a positive integer",
                         err);
    c.num_sms = unsigned(sms->integer());
    const Json *ipc = jc.find("ipc");
    if (!ipc || !ipc->isNumber())
        return badMember(jc, cell, "ipc", "a number", err);
    c.ipc = ipc->number();
    if (const Json *msg = jc.find("verify_msg")) {
        if (!msg->isString())
            return badMember(jc, cell, "verify_msg", "a string", err);
        c.verify_msg = msg->str();
    }
    const Json *stats = jc.find("stats");
    if (!stats)
        return fail(jc, cell, "lacks 'stats'", err);
    std::string serr;
    if (!core::statsFromJson(*stats, &c.stats, &serr))
        return fail(jc, cell, serr, err);
    *out = std::move(c);
    return true;
}

void
writeJson(JsonWriter &w, const Results &r)
{
    w.beginObject();
    w.key("schema_version").value(core::stats_schema_version);
    w.key("generator").value("siwi-run");
    w.key("suite").value(r.suite);
    w.key("machines").beginArray();
    for (const MachineRecord &m : r.machines)
        writeJson(w, m);
    w.endArray();
    w.key("cells").beginArray();
    for (const CellResult &c : r.cells)
        writeJson(w, c);
    w.endArray();
    w.endObject();
}

std::string
Results::toJsonText() const
{
    std::string text = jsonText(*this, 2);
    text += '\n';
    return text;
}

bool
Results::fromJson(const Json &j, Results *out, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "results: expected a JSON object";
        return false;
    }
    const Json *version = j.find("schema_version");
    if (!version || !version->isInt())
        return badMember(j, nullptr, "schema_version", "an integer",
                         err);
    if (version->integer() != core::stats_schema_version) {
        if (err)
            *err = "results: schema_version " +
                   std::to_string(version->integer()) +
                   " != supported " +
                   std::to_string(core::stats_schema_version);
        return false;
    }
    Results r;
    if (!getLabel(j, nullptr, "suite", &r.suite, err))
        return false;
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
            const char *machine = "machine";
            MachineRecord m;
            if (!getLabel(je, machine, "sweep", &m.sweep, err) ||
                !getLabel(je, machine, "machine", &m.machine, err))
                return false;
            const Json *cfg = je.find("config");
            if (!cfg)
                return fail(je, machine, "lacks 'config'", err);
            std::string cerr;
            if (!core::gpuConfigApplyJson(*cfg, &m.config, &cerr))
                return fail(je, machine, cerr, err);
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
    return writeTextFile(path, toJsonText(), err);
}

const char *
sizeClassName(workloads::SizeClass sc)
{
    return workloads::size_class_names[size_t(sc)];
}

} // namespace siwi::runner
