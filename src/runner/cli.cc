#include "runner/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/config_reflect.hh"

namespace siwi::runner {

ArgList::ArgList(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        args_.push_back(argv[i]);
}

bool
ArgList::flag(const std::string &name)
{
    for (size_t i = 0; i < args_.size(); ++i) {
        if (args_[i] == name) {
            args_.erase(args_.begin() + long(i));
            return true;
        }
    }
    return false;
}

bool
ArgList::option(const std::string &name, std::string *value)
{
    for (size_t i = 0; i < args_.size(); ++i) {
        if (args_[i] != name)
            continue;
        if (i + 1 >= args_.size()) {
            errors_.push_back(name + " requires a value");
            args_.erase(args_.begin() + long(i));
            return false;
        }
        *value = args_[i + 1];
        args_.erase(args_.begin() + long(i),
                    args_.begin() + long(i) + 2);
        return true;
    }
    return false;
}

std::vector<std::string>
ArgList::options(const std::string &name)
{
    std::vector<std::string> values;
    std::string v;
    while (option(name, &v))
        values.push_back(v);
    return values;
}

bool
ArgList::intOption(const std::string &name, unsigned *value)
{
    std::string v;
    if (!option(name, &v))
        return false;
    // strtoul would wrap a leading '-'; reject it explicitly. An
    // out-of-range value must not narrow into a small count.
    char *end = nullptr;
    errno = 0;
    unsigned long n = std::strtoul(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || !end || end == v.c_str() ||
        *end != '\0') {
        errors_.push_back(name +
                          ": not a non-negative number: " + v);
        return false;
    }
    if (errno == ERANGE || n > std::numeric_limits<unsigned>::max()) {
        errors_.push_back(name + ": out of range: " + v);
        return false;
    }
    *value = unsigned(n);
    return true;
}

bool
ArgList::doubleOption(const std::string &name, double *value)
{
    std::string v;
    if (!option(name, &v))
        return false;
    char *end = nullptr;
    double d = std::strtod(v.c_str(), &end);
    if (!end || end == v.c_str() || *end != '\0') {
        errors_.push_back(name + ": not a number: " + v);
        return false;
    }
    *value = d;
    return true;
}

bool
ArgList::enumOption(const std::string &name,
                    std::span<const char *const> names,
                    size_t *index)
{
    std::string v;
    if (!option(name, &v))
        return false;
    if (!enumIndex(names, v, index)) {
        errors_.push_back(name + ": unknown value '" + v + "' (" +
                          enumNameList(names) + ")");
        return false;
    }
    return true;
}

bool
smsAxisOption(ArgList &args, const char *prog,
              std::vector<unsigned> *out)
{
    for (const std::string &s : args.options("--sms")) {
        char *end = nullptr;
        unsigned long v = std::strtoul(s.c_str(), &end, 10);
        if (s.empty() || s[0] == '-' || !end || *end != '\0' ||
            v < 1 || v > 1024) {
            std::fprintf(stderr, "%s: bad --sms: %s\n", prog,
                         s.c_str());
            return false;
        }
        // A repeated count would expand to duplicate cells with
        // colliding "@<n>sm" labels.
        for (unsigned prev : *out) {
            if (prev == unsigned(v)) {
                std::fprintf(stderr,
                             "%s: duplicate --sms %lu\n", prog,
                             v);
                return false;
            }
        }
        out->push_back(unsigned(v));
    }
    return true;
}

bool
finishArgs(const ArgList &args, const char *prog)
{
    for (const std::string &e : args.errors())
        std::fprintf(stderr, "%s: %s\n", prog, e.c_str());
    for (const std::string &a : args.remaining())
        std::fprintf(stderr, "%s: unknown argument: %s\n", prog,
                     a.c_str());
    return args.errors().empty() && args.remaining().empty();
}

} // namespace siwi::runner
