/**
 * @file
 * siwi-lint CLI. Exit codes: 0 clean, 1 findings, 2 usage or
 * infrastructure error (a missing or unreadable file) — mirroring
 * the compiler-like convention that a bad invocation is distinct
 * from a bad tree.
 */

#include <cstdio>
#include <string>

#include "lint.hh"

namespace {

void
usage(std::FILE *to)
{
    std::fputs(
        "usage: siwi-lint [--root DIR] [--update-schema-pin] [--quiet]\n"
        "\n"
        "Repo-specific static analysis for the determinism\n"
        "contract (see docs/LINTING.md):\n"
        "  nondet       banned nondeterminism sources in src/+tools/\n"
        "  header       include-guard and using-namespace hygiene\n"
        "  schema       serialized key set vs the pinned schema\n"
        "               version (tools/siwi_lint/schema.pin)\n"
        "\n"
        "--update-schema-pin rewrites the pin after a deliberate\n"
        "schema bump instead of comparing.\n",
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
        if (arg == "--root") {
            if (i + 1 >= argc) {
                std::fputs("siwi-lint: --root needs a value\n", stderr);
                return 2;
            }
            opts.root = argv[++i];
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
                     "siwi-lint: %zu finding%s (docs/LINTING.md "
                     "explains each check)\n",
                     res.findings.size(),
                     res.findings.size() == 1 ? "" : "s");
        return 1;
    }
    if (!quiet)
        std::fprintf(stderr, "siwi-lint: clean\n");
    return 0;
}
