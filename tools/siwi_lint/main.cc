/**
 * @file
 * siwi-lint CLI. Exit codes: 0 clean, 1 findings, 2 usage or
 * infrastructure error (unreadable registered file, malformed
 * allowlist) — mirroring the compiler-like convention that a bad
 * invocation is distinct from a bad tree.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "lint.hh"

namespace {

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: siwi-lint [--root DIR] [--allowlist FILE]\n"
        "                 [--schema-pin FILE] [--update-schema-pin]\n"
        "                 [--quiet]\n"
        "\n"
        "Repo-specific static analysis for the determinism\n"
        "contract (see docs/LINTING.md):\n"
        "  nondet       banned nondeterminism sources in src/+tools/\n"
        "  header       include-guard and using-namespace hygiene\n"
        "  schema       serialized key set vs the pinned schema\n"
        "               version\n"
        "  allowlist    stale suppression entries\n"
        "\n"
        "Paths given to --allowlist/--schema-pin are relative to\n"
        "--root. --update-schema-pin rewrites the pin after a\n"
        "deliberate schema bump instead of comparing.\n",
        to);
}

} // namespace

int
main(int argc, char **argv)
{
    siwi::lint::Options opts;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "siwi-lint: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return argv[++i];
        };
        if (arg == "--root") {
            const char *v = value("--root");
            if (!v)
                return 2;
            opts.root = v;
        } else if (arg == "--allowlist") {
            const char *v = value("--allowlist");
            if (!v)
                return 2;
            opts.allowlist = v;
        } else if (arg == "--schema-pin") {
            const char *v = value("--schema-pin");
            if (!v)
                return 2;
            opts.schema_pin = v;
        } else if (arg == "--update-schema-pin") {
            opts.update_schema_pin = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "siwi-lint: unknown option '%s'\n",
                         arg.c_str());
            usage(stderr);
            return 2;
        }
    }

    const siwi::lint::Result res = siwi::lint::runLint(opts);
    for (const std::string &err : res.errors)
        std::fprintf(stderr, "siwi-lint: error: %s\n", err.c_str());
    for (const siwi::lint::Finding &f : res.findings)
        std::fprintf(stdout, "%s\n", f.format().c_str());
    if (!res.errors.empty())
        return 2;
    if (!res.findings.empty()) {
        std::fprintf(stderr,
                     "siwi-lint: %zu finding%s (allowlist: "
                     "%s; docs/LINTING.md explains each check)\n",
                     res.findings.size(),
                     res.findings.size() == 1 ? "" : "s",
                     opts.allowlist.c_str());
        return 1;
    }
    if (!quiet)
        std::fprintf(stderr, "siwi-lint: clean\n");
    return 0;
}
