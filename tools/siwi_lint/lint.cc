#include "lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace fs = std::filesystem;

namespace siwi::lint {

namespace {

// ---------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------

bool
readFile(const fs::path &p, std::string *out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::string cur;
    for (char c : text) {
        if (c == '\n') {
            lines.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        lines.push_back(cur);
    return lines;
}

std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r\n");
    return s.substr(b, e - b + 1);
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.starts_with(prefix);
}

/**
 * Blank comments and the contents of string/char literals while
 * preserving byte positions and newlines, so line numbers and
 * column structure survive. The quote characters themselves stay,
 * literal bodies become spaces. Handles //, multi-line comments
 * and escape sequences; raw strings are not used in this repo.
 */
std::string
stripCommentsAndStrings(const std::string &src)
{
    std::string out = src;
    enum class St { Code, Line, Block, Str, Chr } st = St::Code;
    for (size_t i = 0; i < src.size(); ++i) {
        char c = src[i];
        char n = i + 1 < src.size() ? src[i + 1] : '\0';
        switch (st) {
          case St::Code:
            if (c == '/' && n == '/') {
                st = St::Line;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '/' && n == '*') {
                st = St::Block;
                out[i] = out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                st = St::Str;
            } else if (c == '\'') {
                st = St::Chr;
            }
            break;
          case St::Line:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
          case St::Block:
            if (c == '*' && n == '/') {
                out[i] = out[i + 1] = ' ';
                st = St::Code;
                ++i;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          case St::Str:
          case St::Chr: {
            char quote = st == St::Str ? '"' : '\'';
            if (c == '\\' && i + 1 < src.size()) {
                out[i] = ' ';
                if (src[i + 1] != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == quote) {
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
          }
        }
    }
    return out;
}

// ---------------------------------------------------------------
// File discovery
// ---------------------------------------------------------------

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

/**
 * Every source file under root/src and root/tools, as
 * root-relative forward-slash paths in sorted (deterministic)
 * order. The lint's own fixtures seed violations on purpose and
 * are excluded.
 */
std::vector<std::string>
collectSources(const fs::path &root, std::vector<std::string> *errs)
{
    std::vector<std::string> out;
    for (const char *top : {"src", "tools"}) {
        fs::path dir = root / top;
        if (!fs::exists(dir)) {
            if (std::string(top) == "src")
                errs->push_back("missing directory: " +
                                dir.string());
            continue;
        }
        for (auto it = fs::recursive_directory_iterator(dir);
             it != fs::recursive_directory_iterator(); ++it) {
            if (it->is_directory() &&
                it->path().filename() == "fixtures") {
                it.disable_recursion_pending();
                continue;
            }
            if (!it->is_regular_file() ||
                !isSourceFile(it->path()))
                continue;
            out.push_back(
                fs::relative(it->path(), root).generic_string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

// ---------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------

struct AllowEntry
{
    std::string check;
    std::string path;
    std::string match;
    std::string justification;
    int line = 0; //!< line in the allowlist file
    bool used = false;
};

std::vector<AllowEntry>
loadAllowlist(const fs::path &file, std::vector<std::string> *errs)
{
    std::vector<AllowEntry> entries;
    std::string text;
    if (!readFile(file, &text))
        return entries; // an absent allowlist is simply empty
    int lineno = 0;
    for (const std::string &raw : splitLines(text)) {
        ++lineno;
        std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        AllowEntry e;
        e.line = lineno;
        size_t p1 = line.find('|');
        size_t p2 = p1 == std::string::npos
                        ? std::string::npos
                        : line.find('|', p1 + 1);
        size_t p3 = p2 == std::string::npos
                        ? std::string::npos
                        : line.find('|', p2 + 1);
        if (p3 == std::string::npos) {
            errs->push_back(
                file.string() + ":" + std::to_string(lineno) +
                ": allowlist entry needs 4 '|'-separated fields "
                "(check|path|match|justification)");
            continue;
        }
        e.check = trim(line.substr(0, p1));
        e.path = trim(line.substr(p1 + 1, p2 - p1 - 1));
        e.match = trim(line.substr(p2 + 1, p3 - p2 - 1));
        e.justification = trim(line.substr(p3 + 1));
        if (e.check.empty() || e.path.empty() || e.match.empty() ||
            e.justification.empty()) {
            errs->push_back(
                file.string() + ":" + std::to_string(lineno) +
                ": allowlist entry has an empty field; a "
                "justification is mandatory");
            continue;
        }
        entries.push_back(std::move(e));
    }
    return entries;
}

// ---------------------------------------------------------------
// Check 1: banned nondeterminism sources
// ---------------------------------------------------------------

struct BannedPattern
{
    std::regex re;
    const char *why;
};

const std::vector<BannedPattern> &
bannedPatterns()
{
    static const std::vector<BannedPattern> v = {
        {std::regex(R"(\bunordered_(map|set)\b)"),
         "unordered container: iteration order varies across "
         "libraries and runs; use std::map / a sorted vector, or "
         "allowlist a lookup-only use"},
        {std::regex(R"(\brandom_device\b)"),
         "std::random_device: nondeterministic seed source; use "
         "common/rng.hh with an explicit seed"},
        {std::regex(R"(\bs?rand\s*\()"),
         "rand()/srand(): hidden global RNG state; use "
         "common/rng.hh with an explicit seed"},
        {std::regex(
             R"(\b(system_clock|steady_clock|high_resolution_clock)\b)"),
         "wall clock: simulation state must depend only on "
         "simulated cycles, never on host time"},
        {std::regex(R"(\btime\s*\()"),
         "time(): host wall clock in simulation code"},
        {std::regex(R"(\bclock\s*\()"),
         "clock(): host CPU clock in simulation code"},
        {std::regex(R"(std::(map|set)\s*<[^<>,]*\*)"),
         "pointer-keyed ordered container: ordering follows "
         "allocation addresses, which vary run to run; key by a "
         "stable id instead"},
    };
    return v;
}

void
checkBannedSources(const fs::path &root,
                   const std::vector<std::string> &files,
                   std::vector<Finding> *findings,
                   std::vector<std::string> *flagged_lines,
                   std::vector<std::string> *errs)
{
    for (const std::string &rel : files) {
        std::string text;
        if (!readFile(root / rel, &text)) {
            errs->push_back("unreadable file: " + rel);
            continue;
        }
        const std::string stripped = stripCommentsAndStrings(text);
        const std::vector<std::string> raw = splitLines(text);
        const std::vector<std::string> code = splitLines(stripped);
        for (size_t i = 0; i < code.size(); ++i) {
            const std::string &line = code[i];
            // Preprocessor lines: the #include naming the header
            // is redundant with the use we flag.
            if (startsWith(trim(line), "#"))
                continue;
            for (const BannedPattern &p : bannedPatterns()) {
                if (!std::regex_search(line, p.re))
                    continue;
                Finding f;
                f.file = rel;
                f.line = int(i) + 1;
                f.check = "nondet";
                f.message = p.why;
                findings->push_back(std::move(f));
                flagged_lines->push_back(
                    i < raw.size() ? raw[i] : "");
            }
        }
    }
}

// ---------------------------------------------------------------
// Check 2: header hygiene
// ---------------------------------------------------------------

std::string
expectedGuard(const std::string &rel)
{
    std::string path = rel;
    if (startsWith(path, "src/"))
        path = path.substr(4);
    std::string guard = "SIWI_";
    for (char c : path) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            guard += char(
                std::toupper(static_cast<unsigned char>(c)));
        else
            guard += '_';
    }
    return guard;
}

void
checkHeaders(const fs::path &root,
             const std::vector<std::string> &files,
             std::vector<Finding> *findings,
             std::vector<std::string> *flagged_lines,
             std::vector<std::string> *errs)
{
    const std::regex ifndef_re(R"(^\s*#ifndef\s+([A-Za-z0-9_]+))");
    const std::regex define_re(R"(^\s*#define\s+([A-Za-z0-9_]+))");
    const std::regex using_re(R"(\busing\s+namespace\b)");
    for (const std::string &rel : files) {
        if (fs::path(rel).extension() != ".hh" &&
            fs::path(rel).extension() != ".h" &&
            fs::path(rel).extension() != ".hpp")
            continue;
        std::string text;
        if (!readFile(root / rel, &text)) {
            errs->push_back("unreadable file: " + rel);
            continue;
        }
        const std::string stripped = stripCommentsAndStrings(text);
        const std::vector<std::string> raw = splitLines(text);
        const std::vector<std::string> code = splitLines(stripped);

        const std::string guard = expectedGuard(rel);
        std::string got_ifndef, got_define;
        int guard_line = 0;
        for (size_t i = 0; i < code.size(); ++i) {
            std::smatch m;
            if (got_ifndef.empty() &&
                std::regex_search(code[i], m, ifndef_re)) {
                got_ifndef = m[1];
                guard_line = int(i) + 1;
                // The #define must follow on the next code line.
                for (size_t j = i + 1; j < code.size(); ++j) {
                    if (trim(code[j]).empty())
                        continue;
                    std::smatch md;
                    if (std::regex_search(code[j], md, define_re))
                        got_define = md[1];
                    break;
                }
                break;
            }
            if (!trim(code[i]).empty() &&
                !startsWith(trim(code[i]), "#"))
                break; // code before any guard
        }
        if (got_ifndef != guard || got_define != guard) {
            Finding f;
            f.file = rel;
            f.line = guard_line ? guard_line : 1;
            f.check = "header";
            f.message =
                got_ifndef.empty()
                    ? "missing include guard; expected #ifndef " +
                          guard + " / #define " + guard
                    : "include guard is '" + got_ifndef +
                          (got_define != got_ifndef
                               ? "' (#define says '" + got_define +
                                     "')"
                               : "'") +
                          "; expected '" + guard + "'";
            findings->push_back(std::move(f));
            flagged_lines->push_back(
                guard_line && guard_line <= int(raw.size())
                    ? raw[guard_line - 1]
                    : "");
        }

        for (size_t i = 0; i < code.size(); ++i) {
            if (std::regex_search(code[i], using_re)) {
                Finding f;
                f.file = rel;
                f.line = int(i) + 1;
                f.check = "header";
                f.message =
                    "'using namespace' in a header leaks into "
                    "every includer; qualify names instead";
                findings->push_back(std::move(f));
                flagged_lines->push_back(
                    i < raw.size() ? raw[i] : "");
            }
        }
    }
}

// ---------------------------------------------------------------
// Check 3: serialized schema key pin
// ---------------------------------------------------------------

std::set<std::string>
extractSerializedKeys(const std::string &text)
{
    std::set<std::string> keys;
    static const std::regex res[] = {
        std::regex(R"re((?:\.|->)set\(\s*"([^"]+)")re"),
        std::regex(
            R"re(\bget(?:Int|Bool|String|Double)\(\s*"([^"]+)")re"),
        std::regex(R"re(\bfind\(\s*"([^"]+)")re"),
    };
    for (const std::regex &re : res) {
        auto begin =
            std::sregex_iterator(text.begin(), text.end(), re);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            keys.insert((*it)[1]);
    }
    return keys;
}

/**
 * The counter names of every counter list in @p text: the X(name)
 * rows of a "#define <NAME>_COUNTERS(X)" macro and its
 * continuation lines (common/field_list.hh). Each is serialized
 * under its own name.
 */
std::set<std::string>
extractCounterRows(const std::string &text)
{
    static const std::regex head(R"(^\s*#\s*define\s+\w+_COUNTERS\(X\))");
    static const std::regex row(R"(\bX\(\s*(\w+)\s*\))");
    std::set<std::string> keys;
    bool in_list = false;
    for (const std::string &raw : splitLines(stripCommentsAndStrings(text))) {
        in_list = in_list || std::regex_search(raw, head);
        if (!in_list)
            continue;
        auto begin = std::sregex_iterator(raw.begin(), raw.end(), row);
        for (auto it = begin; it != std::sregex_iterator(); ++it)
            keys.insert((*it)[1]);
        const std::string line = trim(raw);
        in_list = !line.empty() && line.back() == '\\';
    }
    return keys;
}

void
checkSchemaPin(const fs::path &root, const Options &opts,
               const std::vector<std::string> &files,
               std::vector<Finding> *findings,
               std::vector<std::string> *flagged_lines,
               std::vector<std::string> *errs)
{
    if (opts.schema_pin.empty())
        return;
    const char *version_hdr = "src/core/stats_io.hh";
    // Hand-written keys (set/get/find calls); every scanned source
    // adds the rows of its counter lists.
    const std::vector<const char *> key_files = {
        "src/core/stats_io.cc", "src/runner/results.cc"};

    std::string hdr_text;
    if (!readFile(root / version_hdr, &hdr_text)) {
        errs->push_back(std::string("schema: cannot read ") +
                        version_hdr);
        return;
    }
    std::smatch vm;
    int version = -1;
    int version_line = 0;
    if (std::regex_search(
            hdr_text, vm,
            std::regex(
                R"(stats_schema_version\s*=\s*(\d+))"))) {
        version = std::stoi(vm[1]);
        version_line =
            1 + int(std::count(hdr_text.begin(),
                               hdr_text.begin() + vm.position(0),
                               '\n'));
    } else {
        errs->push_back(std::string("schema: no "
                                    "stats_schema_version in ") +
                        version_hdr);
        return;
    }

    std::set<std::string> keys;
    for (const char *kf : key_files) {
        std::string text;
        if (!readFile(root / kf, &text)) {
            errs->push_back(std::string("schema: cannot read ") +
                            kf);
            return;
        }
        std::set<std::string> k = extractSerializedKeys(text);
        keys.insert(k.begin(), k.end());
    }
    for (const std::string &f : files) {
        std::string text;
        if (!readFile(root / f, &text)) {
            errs->push_back("schema: cannot read " + f);
            return;
        }
        std::set<std::string> k = extractCounterRows(text);
        keys.insert(k.begin(), k.end());
    }

    const fs::path pin_path = root / opts.schema_pin;
    if (opts.update_schema_pin) {
        std::ofstream out(pin_path);
        out << "# Serialized stats/results key set pinned to the "
               "schema version.\n"
            << "# Regenerate (after bumping stats_schema_version "
               "in core/stats_io.hh)\n"
            << "# with: siwi-lint --update-schema-pin\n"
            << "version " << version << "\n";
        for (const std::string &k : keys)
            out << "key " << k << "\n";
        if (!out) {
            errs->push_back("schema: cannot write " +
                            pin_path.string());
        }
        return;
    }

    std::string pin_text;
    if (!readFile(pin_path, &pin_text)) {
        Finding f;
        f.file = opts.schema_pin;
        f.line = 0;
        f.check = "schema";
        f.message = "schema pin file missing; generate it with "
                    "siwi-lint --update-schema-pin";
        findings->push_back(std::move(f));
        flagged_lines->push_back("");
        return;
    }
    int pin_version = -1;
    std::set<std::string> pin_keys;
    for (const std::string &raw : splitLines(pin_text)) {
        std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;
        if (startsWith(line, "version "))
            pin_version = std::stoi(line.substr(8));
        else if (startsWith(line, "key "))
            pin_keys.insert(trim(line.substr(4)));
    }

    if (version != pin_version) {
        Finding f;
        f.file = version_hdr;
        f.line = version_line;
        f.check = "schema";
        f.message = "stats_schema_version is " +
                    std::to_string(version) + " but " +
                    opts.schema_pin + " pins v" +
                    std::to_string(pin_version) +
                    "; after a deliberate bump regenerate the pin "
                    "with siwi-lint --update-schema-pin";
        findings->push_back(std::move(f));
        flagged_lines->push_back("");
        return;
    }
    for (const std::string &k : keys) {
        if (pin_keys.count(k))
            continue;
        Finding f;
        f.file = version_hdr;
        f.line = version_line;
        f.check = "schema";
        f.message =
            "serialized key '" + k +
            "' is new but stats_schema_version is still " +
            std::to_string(version) +
            ": readers of existing artifacts would misparse; bump "
            "the version and regenerate the pin "
            "(siwi-lint --update-schema-pin)";
        findings->push_back(std::move(f));
        flagged_lines->push_back("");
    }
    for (const std::string &k : pin_keys) {
        if (keys.count(k))
            continue;
        Finding f;
        f.file = version_hdr;
        f.line = version_line;
        f.check = "schema";
        f.message =
            "serialized key '" + k +
            "' was removed but stats_schema_version is still " +
            std::to_string(version) +
            ": bump the version and regenerate the pin "
            "(siwi-lint --update-schema-pin)";
        findings->push_back(std::move(f));
        flagged_lines->push_back("");
    }
}

} // namespace

std::string
Finding::format() const
{
    return file + ":" + std::to_string(line) + ": [" + check +
           "] " + message;
}

Result
runLint(const Options &opts)
{
    Result res;
    const fs::path root(opts.root);
    if (!fs::exists(root)) {
        res.errors.push_back("root does not exist: " + opts.root);
        return res;
    }

    const std::vector<std::string> files =
        collectSources(root, &res.errors);

    // Findings and the raw text of the line each one flags, kept
    // index-parallel so allowlist entries can match either the
    // offending line or the message.
    std::vector<Finding> findings;
    std::vector<std::string> flagged;

    checkBannedSources(root, files, &findings, &flagged,
                       &res.errors);
    checkHeaders(root, files, &findings, &flagged, &res.errors);
    checkSchemaPin(root, opts, files, &findings, &flagged, &res.errors);

    std::vector<AllowEntry> allow;
    if (!opts.allowlist.empty())
        allow = loadAllowlist(root / opts.allowlist, &res.errors);

    for (size_t i = 0; i < findings.size(); ++i) {
        bool suppressed = false;
        for (AllowEntry &e : allow) {
            if (e.check != findings[i].check ||
                e.path != findings[i].file)
                continue;
            if (flagged[i].find(e.match) == std::string::npos &&
                findings[i].message.find(e.match) ==
                    std::string::npos)
                continue;
            e.used = true;
            suppressed = true;
        }
        if (!suppressed)
            res.findings.push_back(findings[i]);
    }
    for (const AllowEntry &e : allow) {
        if (e.used)
            continue;
        Finding f;
        f.file = opts.allowlist;
        f.line = e.line;
        f.check = "allowlist";
        f.message = "stale allowlist entry (check '" + e.check +
                    "', path '" + e.path + "', match '" + e.match +
                    "') matches nothing; delete it or fix the "
                    "reference";
        res.findings.push_back(std::move(f));
    }

    std::sort(res.findings.begin(), res.findings.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.message < b.message;
              });
    return res;
}

} // namespace siwi::lint
