/**
 * @file
 * A streaming JSON writer, and a minimal JSON value type with a
 * strict recursive-descent parser.
 *
 * Written for the experiment-runner results pipeline. JsonWriter
 * is the one emitter: the library's serializers write their data
 * into it directly, and Json::dump() walks a tree into it. Objects
 * keep insertion order, integers and doubles are kept apart, and
 * doubles are emitted with std::to_chars shortest round-trip
 * formatting, so serializing the same data always yields
 * byte-identical text regardless of thread count or platform
 * locale. The Json tree is for reading (and for programs that
 * assemble small documents). No third-party dependency is
 * involved.
 */

#ifndef SIWI_COMMON_JSON_HH
#define SIWI_COMMON_JSON_HH

#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "common/types.hh"

namespace siwi {

/**
 * Appends JSON text to a string: compact (@p indent < 0) or
 * pretty-printed with that many spaces per level, `": "` after a
 * key, `{}` and `[]` for empty containers. Members and elements go
 * in call order; the caller nests begin/end calls and writes one
 * value after each key().
 */
class JsonWriter
{
  public:
    JsonWriter(std::string &out, int indent)
        : out_(out), indent_(indent)
    {
    }

    void beginObject() { open('{'); }
    void endObject() { close('}'); }
    void beginArray() { open('['); }
    void endArray() { close(']'); }

    /** The next value is the member @p k of the open object. */
    JsonWriter &key(std::string_view k);

    void null();
    void value(bool b);
    void value(i64 n);
    /** Written as Json(u64) stores it: the bits as an i64. */
    void value(u64 n) { value(i64(n)); }
    void value(int n) { value(i64(n)); }
    void value(unsigned n) { value(i64(n)); }
    /** Shortest round-trip form; null when not finite. */
    void value(double d);
    void value(std::string_view s);
    void value(const char *s) { value(std::string_view(s)); }

  private:
    /** Separator and line break before a member or element. */
    void next();
    void open(char c);
    void close(char c);
    void newline(int depth);
    /** @p s in quotes, escaped. */
    void quoted(std::string_view s);

    std::string &out_;
    int indent_;
    int depth_ = 0;
    bool first_ = true; //!< nothing written in the open container yet
    bool after_key_ = false; //!< the next value is a key's
};

/**
 * @p v written by its writeJson(JsonWriter &, const T &) overload
 * (found by argument-dependent lookup) at @p indent.
 */
template <typename T>
std::string
jsonText(const T &v, int indent = -1)
{
    std::string out;
    JsonWriter w(out, indent);
    writeJson(w, v);
    return out;
}

/**
 * Write @p text to @p path, checking the final flush (a buffered
 * write that only fails at close is still reported).
 * @return false and set @p err on any I/O failure.
 */
bool writeTextFile(const std::string &path, std::string_view text,
                   std::string *err);

/**
 * One JSON value: null, bool, integer, double, string, array or
 * object. Objects preserve insertion order (no sorting, no hashing)
 * so that dumps are reproducible.
 */
class Json
{
  public:
    using Array = std::vector<Json>;
    using Member = std::pair<std::string, Json>;
    using Object = std::vector<Member>;

    Json() : v_(nullptr) {}
    Json(std::nullptr_t) : v_(nullptr) {}
    Json(bool b) : v_(b) {}
    Json(i64 n) : v_(n) {}
    Json(u64 n) : v_(i64(n)) {}
    Json(int n) : v_(i64(n)) {}
    Json(unsigned n) : v_(i64(n)) {}
    Json(double d) : v_(d) {}
    Json(const char *s) : v_(std::string(s)) {}
    Json(std::string s) : v_(std::move(s)) {}
    Json(Array a) : v_(std::move(a)) {}
    Json(Object o) : v_(std::move(o)) {}

    static Json array() { return Json(Array{}); }
    static Json object() { return Json(Object{}); }

    bool isNull() const { return holds<std::nullptr_t>(); }
    bool isBool() const { return holds<bool>(); }
    bool isInt() const { return holds<i64>(); }
    bool isDouble() const { return holds<double>(); }
    /** Integer or double. */
    bool isNumber() const { return isInt() || isDouble(); }
    bool isString() const { return holds<std::string>(); }
    bool isArray() const { return holds<Array>(); }
    bool isObject() const { return holds<Object>(); }

    bool boolean() const { return std::get<bool>(v_); }
    i64 integer() const { return std::get<i64>(v_); }
    /** Numeric value widened to double (works for isInt() too). */
    double number() const;
    const std::string &str() const { return std::get<std::string>(v_); }
    const Array &arr() const { return std::get<Array>(v_); }
    Array &arr() { return std::get<Array>(v_); }
    const Object &obj() const { return std::get<Object>(v_); }
    Object &obj() { return std::get<Object>(v_); }

    /** Append to an array value. */
    void push(Json j) { arr().push_back(std::move(j)); }

    /** Append a member to an object value (no duplicate check). */
    void set(std::string key, Json j)
    {
        obj().emplace_back(std::move(key), std::move(j));
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const Json *find(std::string_view key) const;

    /**
     * Typed member accessors with defaults, for tolerant readers.
     * getInt() accepts an integral double (e.g. 3.0) as well.
     */
    i64 getInt(std::string_view key, i64 def = 0) const;
    double getDouble(std::string_view key, double def = 0.0) const;
    bool getBool(std::string_view key, bool def = false) const;
    std::string getString(std::string_view key,
                          const std::string &def = {}) const;

    bool operator==(const Json &rhs) const = default;

    /**
     * Serialize through a JsonWriter. @p indent < 0 yields compact
     * one-line output; otherwise pretty-print with that many
     * spaces per level.
     */
    std::string dump(int indent = -1) const;

    /**
     * Parse @p text (the whole string must be one JSON value).
     * On failure returns null and stores a diagnostic in @p err.
     */
    static Json parse(std::string_view text, std::string *err);

    /**
     * Read and parse a whole file (the writeFile() companion).
     * On failure returns null and stores a diagnostic — prefixed
     * with the path — in @p err; @p err is cleared on success so
     * callers can test it directly.
     */
    static Json parseFile(const std::string &path,
                          std::string *err);

    /**
     * Write dump(@p indent) plus a trailing newline to @p path
     * (writeTextFile()).
     * @return false and set @p err on any I/O failure.
     */
    bool writeFile(const std::string &path, int indent = 2,
                   std::string *err = nullptr) const;

  private:
    template <typename T> bool holds() const
    {
        return std::holds_alternative<T>(v_);
    }

    std::variant<std::nullptr_t, bool, i64, double, std::string,
                 Array, Object>
        v_;
};

/**
 * The tree of jsonText(@p v): for a caller that needs a Json value
 * of a struct whose one serializer writes into a JsonWriter.
 */
template <typename T>
Json
jsonValue(const T &v)
{
    return Json::parse(jsonText(v), nullptr);
}

} // namespace siwi

#endif // SIWI_COMMON_JSON_HH
