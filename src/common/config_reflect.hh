/**
 * @file
 * Reflection-style field tables for configuration structs.
 *
 * The statsU64Fields() pattern (core/stats_io.hh) generalized to
 * u32, bool and enum fields: a config struct declares one table of
 * ConfigField rows, and that single table drives
 *
 *   - JSON serialization   (configToJson)
 *   - strict JSON parsing  (configApplyJson — unknown keys, type
 *                           mismatches and bad enum names are
 *                           errors that name the offending key)
 *   - "key=value" parsing  (configApplyKeyValue — the CLI --set
 *                           path and machine/spec-file "set"
 *                           blocks)
 *   - equality             (configEqual, behind operator==)
 *   - a self-describing    (configSchema — key, type, default,
 *     schema dump           enum values, one-line doc)
 *
 * A field that is not in the table does not exist as far as spec
 * files, machine files, result artifacts and config equality are
 * concerned, so every new knob must be added to its table — the
 * round-trip tests enumerate the table and keep it honest.
 */

#ifndef SIWI_COMMON_CONFIG_REFLECT_HH
#define SIWI_COMMON_CONFIG_REFLECT_HH

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>

#include "common/json.hh"
#include "common/types.hh"

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
};

/** One bounded field of a config struct, for checkRanges(). */
struct ConfigRange
{
    const char *key;
    u64 value;
    u64 lo;
    u64 hi;
};

/**
 * "<key> out of range (<lo>..<hi>)" for the first of @p rows
 * whose value lies outside its range; empty when all are inside.
 */
inline std::string
checkRanges(std::initializer_list<ConfigRange> rows)
{
    for (const ConfigRange &r : rows) {
        if (r.value < r.lo || r.value > r.hi)
            return std::string(r.key) + " out of range (" +
                   std::to_string(r.lo) + ".." +
                   std::to_string(r.hi) + ")";
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

namespace detail_config {

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

template <typename Cfg>
bool
setFromJson(const ConfigField<Cfg> &f, const Json &v, Cfg *c,
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
        f.set(*c, u64(v.integer()));
        return true;
      case ConfigFieldType::Bool:
        if (!v.isBool()) {
            if (err)
                *err = std::string("config key '") + f.key +
                       "' needs true or false";
            return false;
        }
        f.set(*c, v.boolean() ? 1 : 0);
        return true;
      case ConfigFieldType::Enum: {
        if (!v.isString()) {
            if (err)
                *err = std::string("config key '") + f.key +
                       "' needs one of: " + enumNameList(f.values);
            return false;
        }
        u64 idx = 0;
        if (!enumIndex(f.values, v.str(), &idx)) {
            if (err)
                *err = std::string("config key '") + f.key +
                       "': unknown value '" + v.str() +
                       "' (expected " + enumNameList(f.values) + ")";
            return false;
        }
        f.set(*c, idx);
        return true;
      }
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
        const ConfigField<Cfg> *f =
            detail_config::findField(fields, m.first);
        if (!f) {
            if (err)
                *err = "unknown config key '" + m.first + "'";
            return false;
        }
        if (!detail_config::setFromJson(*f, m.second, &tmp, err))
            return false;
    }
    *c = tmp;
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
    const ConfigField<Cfg> *f =
        detail_config::findField(fields, key);
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
 * docs/CONFIG.md is generated from this dump.
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
 * Field-definition shorthand for the config tables: capture-less
 * lambdas decay to the function pointers ConfigField stores, and
 * `member` may be any (possibly nested) data-member expression.
 * Shared by every table so accessor fixes cannot diverge.
 */
#define SIWI_CFG_U32(Cfg, key, member, doc) \
    ::siwi::ConfigField<Cfg> \
    { \
        key, ::siwi::ConfigFieldType::U32, doc, \
            [](const Cfg &c) -> ::siwi::u64 { \
                return ::siwi::u64(c.member); \
            }, \
            [](Cfg &c, ::siwi::u64 v) { \
                c.member = decltype(c.member)(v); \
            }, \
            {} \
    }
#define SIWI_CFG_BOOL(Cfg, key, member, doc) \
    ::siwi::ConfigField<Cfg> \
    { \
        key, ::siwi::ConfigFieldType::Bool, doc, \
            [](const Cfg &c) -> ::siwi::u64 { \
                return c.member ? 1 : 0; \
            }, \
            [](Cfg &c, ::siwi::u64 v) { c.member = v != 0; }, {} \
    }
#define SIWI_CFG_ENUM(Cfg, key, member, names, doc) \
    ::siwi::ConfigField<Cfg> \
    { \
        key, ::siwi::ConfigFieldType::Enum, doc, \
            [](const Cfg &c) -> ::siwi::u64 { \
                return ::siwi::u64(c.member); \
            }, \
            [](Cfg &c, ::siwi::u64 v) { \
                c.member = decltype(c.member)(v); \
            }, \
            names \
    }

#endif // SIWI_COMMON_CONFIG_REFLECT_HH
