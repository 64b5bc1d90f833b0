#include "core/stats_io.hh"

#include <limits>
#include <type_traits>

namespace siwi::core {

namespace {

template <typename Stats>
void
putCounters(const Stats &s, Json *j)
{
    for (const CounterField<Stats> &f : counterFields<Stats>())
        j->set(std::string(f.name), Json(s.*f.member));
}

/** One breakdown entry: its counters, after a unit's name. */
template <typename Stats>
Json
entryToJson(const Stats &s)
{
    if constexpr (std::is_same_v<Stats, SimStats>)
        return statsToJson(s);
    Json j = Json::object();
    if constexpr (std::is_same_v<Stats, UnitStats>)
        j.set("name", Json(s.name));
    putCounters(s, &j);
    return j;
}

template <typename Stats>
Json
arrayToJson(const std::vector<Stats> &v)
{
    Json arr = Json::array();
    for (const Stats &s : v)
        arr.push(entryToJson(s));
    return arr;
}

/**
 * Member @p key of @p j into @p out when present: a non-negative
 * integer that fits @p T, else an error naming the key.
 */
template <typename T>
bool
getCount(const Json &j, std::string_view key, T *out, std::string *err)
{
    const Json *v = j.find(key);
    if (!v)
        return true;
    if (!v->isInt() || v->integer() < 0 ||
        u64(v->integer()) > std::numeric_limits<T>::max()) {
        if (err)
            *err = "stats: '" + std::string(key) +
                   "' must be a non-negative integer";
        return false;
    }
    *out = T(v->integer());
    return true;
}

/** As getCount(), for a bool member. */
bool
getFlag(const Json &j, const char *key, bool *out, std::string *err)
{
    const Json *v = j.find(key);
    if (!v)
        return true;
    if (!v->isBool()) {
        if (err)
            *err = std::string("stats: '") + key +
                   "' must be true or false";
        return false;
    }
    *out = v->boolean();
    return true;
}

template <typename Stats>
bool
getCounters(const Json &j, Stats *s, std::string *err)
{
    for (const CounterField<Stats> &f : counterFields<Stats>()) {
        if (!getCount(j, f.name, &(s->*f.member), err))
            return false;
    }
    return true;
}

template <typename Stats>
bool
entryFromJson(const Json &j, Stats *s, std::string *err)
{
    if constexpr (std::is_same_v<Stats, SimStats>)
        return statsFromJson(j, s, err);
    if constexpr (std::is_same_v<Stats, UnitStats>) {
        if (const Json *name = j.find("name")) {
            if (!name->isString()) {
                if (err)
                    *err = "stats: unit 'name' must be a string";
                return false;
            }
            s->name = name->str();
        }
    }
    return getCounters(j, s, err);
}

/** Array member @p key of @p j, when present, into @p out. */
template <typename Stats>
bool
getArray(const Json &j, const char *key, std::vector<Stats> *out,
         std::string *err)
{
    const Json *arr = j.find(key);
    if (!arr)
        return true;
    if (!arr->isArray()) {
        if (err)
            *err = std::string("stats: '") + key +
                   "' must be an array";
        return false;
    }
    for (const Json &e : arr->arr()) {
        if (!e.isObject()) {
            if (err)
                *err = std::string("stats: '") + key +
                       "' entry must be an object";
            return false;
        }
        Stats s;
        if (!entryFromJson(e, &s, err))
            return false;
        out->push_back(std::move(s));
    }
    return true;
}

} // namespace

Json
statsToJson(const SimStats &st)
{
    Json j = Json::object();
    j.set("cycles", Json(st.cycles));
    j.set("timed_out", Json(st.timed_out));
    putCounters(st, &j);
    j.set("max_stack_depth", Json(st.max_stack_depth));
    j.set("max_live_contexts", Json(st.max_live_contexts));
    j.set("num_sms", Json(st.num_sms));
    j.set("units", arrayToJson(st.units));

    // The chip memory-topology breakdowns (schema v5) and the
    // per-SM breakdown exist only on multi-SM chip aggregates;
    // omit them otherwise so single-SM result files stay compact.
    if (!st.l2_slices.empty())
        j.set("l2_slices", arrayToJson(st.l2_slices));
    if (!st.dram_channels.empty())
        j.set("dram_channels", arrayToJson(st.dram_channels));
    if (!st.noc_ports.empty())
        j.set("noc_ports", arrayToJson(st.noc_ports));
    if (!st.per_sm.empty())
        j.set("per_sm", arrayToJson(st.per_sm));
    return j;
}

bool
statsFromJson(const Json &j, SimStats *out, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "stats: expected a JSON object";
        return false;
    }
    SimStats st;
    if (!getCount(j, "cycles", &st.cycles, err) ||
        !getFlag(j, "timed_out", &st.timed_out, err) ||
        !getCounters(j, &st, err) ||
        !getCount(j, "max_stack_depth", &st.max_stack_depth, err) ||
        !getCount(j, "max_live_contexts", &st.max_live_contexts, err) ||
        !getCount(j, "num_sms", &st.num_sms, err) ||
        !getArray(j, "units", &st.units, err) ||
        !getArray(j, "l2_slices", &st.l2_slices, err) ||
        !getArray(j, "dram_channels", &st.dram_channels, err) ||
        !getArray(j, "noc_ports", &st.noc_ports, err) ||
        !getArray(j, "per_sm", &st.per_sm, err))
        return false;
    *out = std::move(st);
    return true;
}

} // namespace siwi::core
