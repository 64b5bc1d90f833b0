#include "common/json.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace siwi {

double
Json::number() const
{
    if (isInt())
        return double(integer());
    return std::get<double>(v_);
}

const Json *
Json::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const Member &m : obj()) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

i64
Json::getInt(std::string_view key, i64 def) const
{
    const Json *j = find(key);
    if (!j)
        return def;
    if (j->isInt())
        return j->integer();
    if (j->isDouble())
        return i64(j->number());
    return def;
}

double
Json::getDouble(std::string_view key, double def) const
{
    const Json *j = find(key);
    return j && j->isNumber() ? j->number() : def;
}

bool
Json::getBool(std::string_view key, bool def) const
{
    const Json *j = find(key);
    return j && j->isBool() ? j->boolean() : def;
}

std::string
Json::getString(std::string_view key, const std::string &def) const
{
    const Json *j = find(key);
    return j && j->isString() ? j->str() : def;
}

namespace {

/** A string character that is written and read as itself: not a
 *  quote, a backslash or a control character. */
bool
plain(char c)
{
    return static_cast<unsigned char>(c) >= 0x20 && c != '"' &&
           c != '\\';
}

} // namespace

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

void
JsonWriter::newline(int depth)
{
    if (indent_ < 0)
        return;
    out_ += '\n';
    out_.append(size_t(indent_) * size_t(depth), ' ');
}

void
JsonWriter::next()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (depth_ == 0)
        return;
    if (!first_)
        out_ += ',';
    first_ = false;
    newline(depth_);
}

void
JsonWriter::open(char c)
{
    next();
    out_ += c;
    ++depth_;
    first_ = true;
}

void
JsonWriter::close(char c)
{
    --depth_;
    if (!first_)
        newline(depth_);
    out_ += c;
    // The closed container is an element of the enclosing one.
    first_ = false;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    next();
    quoted(k);
    out_ += indent_ < 0 ? ":" : ": ";
    after_key_ = true;
    return *this;
}

void
JsonWriter::null()
{
    next();
    out_ += "null";
}

void
JsonWriter::value(bool b)
{
    next();
    out_ += b ? "true" : "false";
}

void
JsonWriter::value(i64 n)
{
    next();
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), n);
    out_.append(buf, res.ptr);
}

void
JsonWriter::value(double d)
{
    next();
    if (!std::isfinite(d)) {
        // JSON has no inf/nan; null is the conventional stand-in.
        out_ += "null";
        return;
    }
    // Shortest round-trip; locale-independent by construction.
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), d);
    out_.append(buf, res.ptr);
}

void
JsonWriter::value(std::string_view s)
{
    next();
    quoted(s);
}

void
JsonWriter::quoted(std::string_view s)
{
    out_ += '"';
    // Append each run of characters that need no escape at once.
    size_t run = 0;
    for (size_t i = 0; i < s.size(); ++i) {
        if (plain(s[i]))
            continue;
        out_.append(s.data() + run, i - run);
        run = i + 1;
        switch (s[i]) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x",
                          unsigned(s[i]));
            out_ += buf;
        }
        }
    }
    out_.append(s.data() + run, s.size() - run);
    out_ += '"';
}

namespace {

void
writeTree(JsonWriter &w, const Json &j)
{
    if (j.isNull()) {
        w.null();
    } else if (j.isBool()) {
        w.value(j.boolean());
    } else if (j.isInt()) {
        w.value(j.integer());
    } else if (j.isDouble()) {
        w.value(j.number());
    } else if (j.isString()) {
        w.value(j.str());
    } else if (j.isArray()) {
        w.beginArray();
        for (const Json &e : j.arr())
            writeTree(w, e);
        w.endArray();
    } else {
        w.beginObject();
        for (const Json::Member &m : j.obj()) {
            w.key(m.first);
            writeTree(w, m.second);
        }
        w.endObject();
    }
}

} // namespace

std::string
Json::dump(int indent) const
{
    std::string out;
    JsonWriter w(out, indent);
    writeTree(w, *this);
    return out;
}

bool
writeTextFile(const std::string &path, std::string_view text,
              std::string *err)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        if (err)
            *err = "cannot write " + path;
        return false;
    }
    out.write(text.data(), std::streamsize(text.size()));
    out.close(); // flush; catches errors a buffered write hid
    if (!out) {
        if (err)
            *err = "write error on " + path;
        return false;
    }
    return true;
}

bool
Json::writeFile(const std::string &path, int indent,
                std::string *err) const
{
    std::string text = dump(indent);
    text += '\n';
    return writeTextFile(path, text, err);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

class Parser
{
  public:
    Parser(std::string_view text, std::string *err)
        : text_(text), err_(err)
    {
    }

    Json run()
    {
        Json j = value();
        if (failed_)
            return Json();
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON value");
            return Json();
        }
        return j;
    }

  private:
    void fail(const std::string &msg)
    {
        if (!failed_ && err_) {
            *err_ = msg + " at offset " + std::to_string(pos_);
        }
        failed_ = true;
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) == word) {
            pos_ += word.size();
            return true;
        }
        return false;
    }

    Json value()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return Json();
        }
        // Bound recursion so corrupt or hostile input yields a
        // parse error instead of a stack overflow.
        if (depth_ >= max_depth) {
            fail("nesting deeper than 100 levels");
            return Json();
        }
        char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return Json(string());
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json(nullptr);
        if (c == '-' || (c >= '0' && c <= '9'))
            return number();
        fail("unexpected character");
        return Json();
    }

    Json object()
    {
        ++pos_; // '{'
        ++depth_;
        Json j = Json::object();
        skipWs();
        if (consume('}')) {
            --depth_;
            return j;
        }
        while (!failed_) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key string");
                break;
            }
            std::string key = string();
            if (failed_)
                break;
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after object key");
                break;
            }
            j.set(std::move(key), value());
            if (failed_)
                break;
            skipWs();
            if (consume(','))
                continue;
            if (consume('}')) {
                --depth_;
                return j;
            }
            fail("expected ',' or '}' in object");
        }
        return Json();
    }

    Json array()
    {
        ++pos_; // '['
        ++depth_;
        Json j = Json::array();
        skipWs();
        if (consume(']')) {
            --depth_;
            return j;
        }
        while (!failed_) {
            j.push(value());
            if (failed_)
                break;
            skipWs();
            if (consume(','))
                continue;
            if (consume(']')) {
                --depth_;
                return j;
            }
            fail("expected ',' or ']' in array");
        }
        return Json();
    }

    std::string string()
    {
        ++pos_; // '"'
        std::string out;
        while (pos_ < text_.size()) {
            // Append each run of plain characters at once.
            const size_t run = pos_;
            while (pos_ < text_.size() && plain(text_[pos_]))
                ++pos_;
            out.append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size())
                break;
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                fail("raw control character in string");
                return {};
            }
            if (pos_ >= text_.size())
                break;
            char e = text_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                unsigned cp = 0;
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return {};
                }
                auto res = std::from_chars(
                    text_.data() + pos_, text_.data() + pos_ + 4,
                    cp, 16);
                if (res.ptr != text_.data() + pos_ + 4) {
                    fail("bad \\u escape");
                    return {};
                }
                pos_ += 4;
                // UTF-8 encode the BMP code point (surrogate
                // pairs are not needed for our ASCII schemas).
                if (cp < 0x80) {
                    out += char(cp);
                } else if (cp < 0x800) {
                    out += char(0xc0 | (cp >> 6));
                    out += char(0x80 | (cp & 0x3f));
                } else {
                    out += char(0xe0 | (cp >> 12));
                    out += char(0x80 | ((cp >> 6) & 0x3f));
                    out += char(0x80 | (cp & 0x3f));
                }
                break;
            }
            default:
                fail("bad escape character");
                return {};
            }
        }
        fail("unterminated string");
        return {};
    }

    Json number()
    {
        size_t start = pos_;
        consume('-');
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        bool is_double = false;
        if (consume('.')) {
            is_double = true;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            is_double = true;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
        }
        std::string_view tok = text_.substr(start, pos_ - start);
        if (!is_double) {
            i64 n = 0;
            auto res = std::from_chars(tok.data(),
                                       tok.data() + tok.size(), n);
            if (res.ec == std::errc() &&
                res.ptr == tok.data() + tok.size())
                return Json(n);
            // Out-of-range integer: fall through to double.
        }
        double d = 0.0;
        auto res = std::from_chars(tok.data(),
                                   tok.data() + tok.size(), d);
        if (res.ec != std::errc() ||
            res.ptr != tok.data() + tok.size()) {
            fail("malformed number");
            return Json();
        }
        return Json(d);
    }

    static constexpr unsigned max_depth = 100;

    std::string_view text_;
    std::string *err_;
    size_t pos_ = 0;
    unsigned depth_ = 0;
    bool failed_ = false;
};

} // namespace

Json
Json::parse(std::string_view text, std::string *err)
{
    return Parser(text, err).run();
}

namespace {

/**
 * The bytes of the regular file at @p path into @p text, read once
 * into a string sized from the file. Its size is taken from the
 * open file, so a rename that replaces the path in between does
 * not matter. @return false when it cannot be opened as a regular
 * file.
 */
bool
readFile(const std::string &path, std::string *text)
{
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st {};
    const bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    size_t got = 0;
    if (ok) {
        text->resize(size_t(st.st_size));
        while (got < text->size()) {
            const ssize_t n =
                ::read(fd, text->data() + got, text->size() - got);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            got += size_t(n);
        }
    }
    // A read error keeps the bytes read so far; a truncated object
    // or array then fails to parse.
    text->resize(got);
    ::close(fd);
    return ok;
}

} // namespace

Json
Json::parseFile(const std::string &path, std::string *err)
{
    if (err)
        err->clear();
    std::string text;
    if (!readFile(path, &text)) {
        if (err)
            *err = "cannot open " + path;
        return Json();
    }
    std::string parse_err;
    Json j = Json::parse(text, &parse_err);
    if (!parse_err.empty()) {
        if (err)
            *err = path + ": " + parse_err;
        return Json();
    }
    return j;
}

} // namespace siwi
