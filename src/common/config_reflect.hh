/**
 * @file
 * Reflection-style field tables for configuration structs.
 *
 * A config struct's field list (common/field_list.hh) expands to
 * one table of ConfigField rows, and that table drives
 *
 *   - JSON serialization   (configToJson)
 *   - strict JSON parsing  (configApplyJson — unknown keys, type
 *                           mismatches and bad enum names are
 *                           errors that name the offending key)
 *   - "key=value" parsing  (configApplyKeyValue — the CLI --set
 *                           path and machine/spec-file "set"
 *                           blocks)
 *   - equality             (configEqual, behind operator==)
 *   - range checks         (checkRanges, in checkInvariants)
 *   - a self-describing    (configSchema — key, type, default,
 *     schema dump           enum values, one-line doc)
 *
 * A field that is not in the list does not exist as far as spec
 * files, machine files, result artifacts and config equality are
 * concerned; a field that is in it is covered by all of the above.
 */

#ifndef SIWI_COMMON_CONFIG_REFLECT_HH
#define SIWI_COMMON_CONFIG_REFLECT_HH

#include <span>
#include <string>
#include <string_view>

#include "common/field_list.hh"
#include "common/json.hh"

namespace siwi {

/** Value shape of one config field. */
enum class ConfigFieldType { U32, Bool, Enum };

/**
 * One field of a config struct @p Cfg. All access goes through a
 * numeric view (u64): bools are 0/1, enums are their underlying
 * index into @p values (which lists the canonical names in enum
 * order). The accessors are capture-less lambdas in the tables, so
 * plain function pointers suffice.
 */
template <typename Cfg>
struct ConfigField
{
    const char *key;      //!< JSON / key=value name
    ConfigFieldType type;
    const char *doc;      //!< one-line schema description
    u64 (*get)(const Cfg &);
    void (*set)(Cfg &, u64);
    /** Enum fields only: canonical names, index == enum value. */
    std::span<const char *const> values;
    /** Inclusive range checkRanges() enforces (U32 fields). */
    u64 lo = 0;
    u64 hi = 0xffffffffu;

    /** A range narrower than the u32 domain applies. */
    bool bounded() const { return lo != 0 || hi != 0xffffffffu; }
};

/**
 * "<key> out of range (<lo>..<hi>)" for the first field of
 * @p fields, in table order, whose value in @p c lies outside its
 * range; empty when all are inside.
 */
template <typename Cfg>
std::string
checkRanges(const Cfg &c, std::span<const ConfigField<Cfg>> fields)
{
    for (const ConfigField<Cfg> &f : fields) {
        if (!f.bounded())
            continue;
        const u64 v = f.get(c);
        if (v < f.lo || v > f.hi)
            return std::string(f.key) + " out of range (" +
                   std::to_string(f.lo) + ".." +
                   std::to_string(f.hi) + ")";
    }
    return {};
}

/** Case-insensitive ASCII string comparison (enum name lookup). */
inline bool
configNameEquals(std::string_view a, std::string_view b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        char ca = a[i], cb = b[i];
        if (ca >= 'A' && ca <= 'Z')
            ca = char(ca - 'A' + 'a');
        if (cb >= 'A' && cb <= 'Z')
            cb = char(cb - 'A' + 'a');
        if (ca != cb)
            return false;
    }
    return true;
}

/**
 * Index of @p name in @p names, compared case-insensitively: the
 * one lookup behind every enum name (config fields, spec files and
 * the command line). @p out is untouched when the name is unknown.
 */
template <typename E>
bool
enumIndex(std::span<const char *const> names, std::string_view name,
          E *out)
{
    for (size_t i = 0; i < names.size(); ++i) {
        if (configNameEquals(name, names[i])) {
            *out = E(i);
            return true;
        }
    }
    return false;
}

/** "a | b | c" list of @p names, for diagnostics. */
inline std::string
enumNameList(std::span<const char *const> names)
{
    std::string out;
    for (const char *v : names) {
        if (!out.empty())
            out += " | ";
        out += v;
    }
    return out;
}

/** The field of @p fields named @p key, or nullptr. */
template <typename Cfg>
const ConfigField<Cfg> *
findField(std::span<const ConfigField<Cfg>> fields,
          std::string_view key)
{
    for (const ConfigField<Cfg> &f : fields) {
        if (key == f.key)
            return &f;
    }
    return nullptr;
}

namespace detail_config {

/**
 * The numeric view of JSON value @p v for field @p f; false and a
 * message naming the key when @p v has the wrong type or value.
 */
template <typename Cfg>
bool
fromJson(const ConfigField<Cfg> &f, const Json &v, u64 *out,
         std::string *err)
{
    switch (f.type) {
      case ConfigFieldType::U32:
        if (!v.isInt() || v.integer() < 0 ||
            u64(v.integer()) > u64(0xffffffffu)) {
            if (err)
                *err = std::string("config key '") + f.key +
                       "' needs an unsigned integer";
            return false;
        }
        *out = u64(v.integer());
        return true;
      case ConfigFieldType::Bool:
        if (!v.isBool()) {
            if (err)
                *err = std::string("config key '") + f.key +
                       "' needs true or false";
            return false;
        }
        *out = v.boolean() ? 1 : 0;
        return true;
      case ConfigFieldType::Enum:
        if (!v.isString()) {
            if (err)
                *err = std::string("config key '") + f.key +
                       "' needs one of: " + enumNameList(f.values);
            return false;
        }
        if (!enumIndex(f.values, v.str(), out)) {
            if (err)
                *err = std::string("config key '") + f.key +
                       "': unknown value '" + v.str() +
                       "' (expected " + enumNameList(f.values) + ")";
            return false;
        }
        return true;
    }
    return false; // unreachable
}

} // namespace detail_config

/** Serialize every table field of @p c, in table order. */
template <typename Cfg>
Json
configToJson(const Cfg &c, std::span<const ConfigField<Cfg>> fields)
{
    Json j = Json::object();
    for (const ConfigField<Cfg> &f : fields) {
        switch (f.type) {
          case ConfigFieldType::U32:
            j.set(f.key, Json(f.get(c)));
            break;
          case ConfigFieldType::Bool:
            j.set(f.key, Json(f.get(c) != 0));
            break;
          case ConfigFieldType::Enum:
            j.set(f.key, Json(f.values[size_t(f.get(c))]));
            break;
        }
    }
    return j;
}

/**
 * Apply the members of JSON object @p j onto @p c. Keys may be any
 * subset of the table (a "set" block mutates a base config; a full
 * configToJson() dump rebuilds one), but an unknown key, a type
 * mismatch or a bad enum name is a strict error naming the key.
 * @p c is only modified on success.
 */
template <typename Cfg>
bool
configApplyJson(const Json &j,
                std::span<const ConfigField<Cfg>> fields, Cfg *c,
                std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "config: expected a JSON object";
        return false;
    }
    Cfg tmp = *c;
    for (const Json::Member &m : j.obj()) {
        const ConfigField<Cfg> *f = findField(fields, m.first);
        if (!f) {
            if (err)
                *err = "unknown config key '" + m.first + "'";
            return false;
        }
        u64 n = 0;
        if (!detail_config::fromJson(*f, m.second, &n, err))
            return false;
        f->set(tmp, n);
    }
    *c = tmp;
    return true;
}

/**
 * The "key=value" value text of JSON value @p v for field @p f,
 * after the type check configApplyJson makes (with its messages):
 * a JSON "set" block reaches the key=value path through this.
 */
template <typename Cfg>
bool
configJsonText(const ConfigField<Cfg> &f, const Json &v,
               std::string *text, std::string *err)
{
    u64 n = 0;
    if (!detail_config::fromJson(f, v, &n, err))
        return false;
    switch (f.type) {
      case ConfigFieldType::U32:
        *text = std::to_string(n);
        break;
      case ConfigFieldType::Bool:
        *text = n ? "true" : "false";
        break;
      case ConfigFieldType::Enum:
        *text = f.values[size_t(n)];
        break;
    }
    return true;
}

/**
 * Apply one "key=value" mutation onto @p c (the --set and
 * "set"-block path). Malformed input ("missing=", "=value", no
 * '='), unknown keys and unparseable values are errors naming the
 * problem.
 */
template <typename Cfg>
bool
configApplyKeyValue(std::string_view kv,
                    std::span<const ConfigField<Cfg>> fields,
                    Cfg *c, std::string *err)
{
    size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
        if (err)
            *err = "expected key=value, got '" + std::string(kv) +
                   "'";
        return false;
    }
    std::string_view key = kv.substr(0, eq);
    std::string_view val = kv.substr(eq + 1);
    if (key.empty()) {
        if (err)
            *err = "missing key in '" + std::string(kv) + "'";
        return false;
    }
    const ConfigField<Cfg> *f = findField(fields, key);
    if (!f) {
        if (err)
            *err = "unknown config key '" + std::string(key) + "'";
        return false;
    }
    switch (f->type) {
      case ConfigFieldType::U32: {
        u64 n = 0;
        bool ok = !val.empty() && val.size() <= 10;
        for (char ch : val) {
            if (ch < '0' || ch > '9') {
                ok = false;
                break;
            }
            n = n * 10 + u64(ch - '0');
        }
        if (!ok || n > u64(0xffffffffu)) {
            if (err)
                *err = std::string("config key '") + f->key +
                       "' needs an unsigned integer, got '" +
                       std::string(val) + "'";
            return false;
        }
        f->set(*c, n);
        return true;
      }
      case ConfigFieldType::Bool:
        if (configNameEquals(val, "true") ||
            configNameEquals(val, "1")) {
            f->set(*c, 1);
            return true;
        }
        if (configNameEquals(val, "false") ||
            configNameEquals(val, "0")) {
            f->set(*c, 0);
            return true;
        }
        if (err)
            *err = std::string("config key '") + f->key +
                   "' needs true or false, got '" +
                   std::string(val) + "'";
        return false;
      case ConfigFieldType::Enum: {
        u64 idx = 0;
        if (!enumIndex(f->values, val, &idx)) {
            if (err)
                *err = std::string("config key '") + f->key +
                       "': unknown value '" + std::string(val) +
                       "' (expected " +
                       enumNameList(f->values) + ")";
            return false;
        }
        f->set(*c, idx);
        return true;
      }
    }
    return false; // unreachable
}

/** Field-wise equality over the table. */
template <typename Cfg>
bool
configEqual(const Cfg &a, const Cfg &b,
            std::span<const ConfigField<Cfg>> fields)
{
    for (const ConfigField<Cfg> &f : fields) {
        if (f.get(a) != f.get(b))
            return false;
    }
    return true;
}

/**
 * Self-describing schema: one entry per field with key, type,
 * default (taken from @p defaults), enum values and doc line.
 * docs/CONFIG.md's field tables equal this dump rendered as
 * Markdown (tests/pipeline/config_io_test.cc compares them).
 */
template <typename Cfg>
Json
configSchema(const Cfg &defaults,
             std::span<const ConfigField<Cfg>> fields)
{
    Json arr = Json::array();
    for (const ConfigField<Cfg> &f : fields) {
        Json e = Json::object();
        e.set("key", Json(f.key));
        switch (f.type) {
          case ConfigFieldType::U32:
            e.set("type", Json("u32"));
            e.set("default", Json(f.get(defaults)));
            break;
          case ConfigFieldType::Bool:
            e.set("type", Json("bool"));
            e.set("default", Json(f.get(defaults) != 0));
            break;
          case ConfigFieldType::Enum: {
            e.set("type", Json("enum"));
            e.set("default",
                  Json(f.values[size_t(f.get(defaults))]));
            Json vals = Json::array();
            for (const char *v : f.values)
                vals.push(Json(v));
            e.set("values", std::move(vals));
            break;
          }
        }
        e.set("doc", Json(f.doc));
        arr.push(std::move(e));
    }
    return arr;
}

} // namespace siwi

/**
 * Expands one row of a config struct's field list
 * (common/field_list.hh) to its ConfigField. The accessors are
 * capture-less generic lambdas, which convert to the table's
 * function pointers; `c.P name` is the (possibly nested) member.
 */
#define SIWI_CFG_FIELD(P, K, kind, ...) \
    SIWI_CFG_FIELD_##kind(P, K, __VA_ARGS__)
/** A field's key: the key prefix K, then the member name. */
#define SIWI_CFG_KEY(K, name) K #name
#define SIWI_CFG_FIELD_U32(P, K, name, def, doc, ...) \
    {SIWI_CFG_KEY(K, name), ::siwi::ConfigFieldType::U32, doc, \
     [](const auto &c) -> ::siwi::u64 { return c.P name; }, \
     [](auto &c, ::siwi::u64 v) { c.P name = ::siwi::u32(v); }, \
     {}, __VA_ARGS__},
#define SIWI_CFG_FIELD_BOOL(P, K, name, def, doc) \
    {SIWI_CFG_KEY(K, name), ::siwi::ConfigFieldType::Bool, doc, \
     [](const auto &c) -> ::siwi::u64 { return c.P name ? 1 : 0; }, \
     [](auto &c, ::siwi::u64 v) { c.P name = v != 0; }, {}},
#define SIWI_CFG_FIELD_ENUM(P, K, name, def, doc, names) \
    {SIWI_CFG_KEY(K, name), ::siwi::ConfigFieldType::Enum, doc, \
     [](const auto &c) -> ::siwi::u64 { return ::siwi::u64(c.P name); }, \
     [](auto &c, ::siwi::u64 v) { c.P name = decltype(def)(v); }, \
     names},
#define SIWI_CFG_FIELD_STRUCT(P, K, name, Type)

#endif // SIWI_COMMON_CONFIG_REFLECT_HH
