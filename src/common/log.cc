#include "common/log.hh"

#include <cstdio>
#include <cstdlib>

namespace siwi {

namespace {
bool quiet_flag = false;
}

void
setLogQuiet(bool quiet)
{
    quiet_flag = quiet;
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s:%d: %s\n", file, line, msg.c_str());
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s:%d: %s\n", file, line, msg.c_str());
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    if (!quiet_flag)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (!quiet_flag)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace siwi
