#include "core/stats_io.hh"

#include <limits>
#include <type_traits>

namespace siwi::core {

namespace {

template <typename Stats>
void
putCounters(JsonWriter &w, const Stats &s)
{
    for (const CounterField<Stats> &f : counterFields<Stats>())
        w.key(f.name).value(s.*f.member);
}

/** One breakdown entry: its counters, after a unit's name. */
template <typename Stats>
void
putEntry(JsonWriter &w, const Stats &s)
{
    if constexpr (std::is_same_v<Stats, SimStats>) {
        writeJson(w, s);
    } else {
        w.beginObject();
        if constexpr (std::is_same_v<Stats, UnitStats>)
            w.key("name").value(s.name);
        putCounters(w, s);
        w.endObject();
    }
}

/** The array of @p v's entries. */
template <typename Stats>
void
putArray(JsonWriter &w, const std::vector<Stats> &v)
{
    w.beginArray();
    for (const Stats &s : v)
        putEntry(w, s);
    w.endArray();
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

void
writeJson(JsonWriter &w, const SimStats &st)
{
    w.beginObject();
    w.key("cycles").value(st.cycles);
    w.key("timed_out").value(st.timed_out);
    putCounters(w, st);
    w.key("max_stack_depth").value(st.max_stack_depth);
    w.key("max_live_contexts").value(st.max_live_contexts);
    w.key("num_sms").value(st.num_sms);
    putArray(w.key("units"), st.units);

    // The chip memory-topology breakdowns (schema v5) and the
    // per-SM breakdown exist only on multi-SM chip aggregates;
    // omit them otherwise so single-SM result files stay compact.
    if (!st.l2_slices.empty())
        putArray(w.key("l2_slices"), st.l2_slices);
    if (!st.dram_channels.empty())
        putArray(w.key("dram_channels"), st.dram_channels);
    if (!st.noc_ports.empty())
        putArray(w.key("noc_ports"), st.noc_ports);
    if (!st.per_sm.empty())
        putArray(w.key("per_sm"), st.per_sm);
    w.endObject();
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
