/**
 * @file
 * siwi-lint: repo-specific static analysis for the determinism
 * contract (docs/LINTING.md).
 *
 * The simulator's headline guarantee — bit-identical statistics at
 * any thread count, with cycle skipping on or off — rests on
 * invariants the compiler cannot see: no nondeterministic
 * containers or clocks feeding simulation state, and a schema
 * version that moves whenever the serialized key set does.
 * This checker enforces them at analysis time, before a bug can
 * reach the runtime drift tests.
 */

#ifndef SIWI_TOOLS_SIWI_LINT_LINT_HH
#define SIWI_TOOLS_SIWI_LINT_LINT_HH

#include <string>
#include <vector>

namespace siwi::lint {

/** One rule violation, anchored to a source line. */
struct Finding
{
    std::string file; //!< path relative to the scanned root
    int line = 0;     //!< 1-based; 0 when file-scoped
    std::string check;
    std::string message;

    /** "file:line: [check] message" (editors can jump to it). */
    std::string format() const;
};

struct Options
{
    /** Repo root to scan (contains src/, tools/). */
    std::string root = ".";
    /** Rewrite tools/siwi_lint/schema.pin instead of comparing. */
    bool update_schema_pin = false;
};

struct Result
{
    std::vector<Finding> findings;
    /** Infrastructure failures (unreadable or missing files). */
    std::vector<std::string> errors;

    bool clean() const
    {
        return findings.empty() && errors.empty();
    }
};

/** Run every check over @p opts.root. */
Result runLint(const Options &opts);

} // namespace siwi::lint

#endif // SIWI_TOOLS_SIWI_LINT_LINT_HH
