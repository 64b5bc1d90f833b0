#include "runner/cli.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>

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
