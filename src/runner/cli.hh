/**
 * @file
 * Tiny command-line helpers for the benches and siwi-run.
 */

#ifndef SIWI_RUNNER_CLI_HH
#define SIWI_RUNNER_CLI_HH

#include <string>
#include <vector>

namespace siwi::runner {

/**
 * A consumable view of argv. Flags and options remove themselves
 * as they are recognized, so whatever is left at the end is an
 * unknown-argument error the caller can report.
 */
class ArgList
{
  public:
    ArgList(int argc, char **argv);

    /** Consume "--name"; true when present. */
    bool flag(const std::string &name);

    /**
     * Consume "--name value"; true when present and a value
     * followed. A trailing "--name" without a value leaves
     * @p value untouched and records a usage error.
     */
    bool option(const std::string &name, std::string *value);

    /** All occurrences of "--name value". */
    std::vector<std::string> options(const std::string &name);

    /**
     * option() parsed as a non-negative integer; a value that does
     * not fit in unsigned is a usage error, never a wrapped count.
     */
    bool intOption(const std::string &name, unsigned *value);

    /** Arguments not consumed so far (excluding argv[0]). */
    const std::vector<std::string> &remaining() const
    {
        return args_;
    }

    /** Usage errors accumulated by option()/intOption(). */
    const std::vector<std::string> &errors() const
    {
        return errors_;
    }

  private:
    std::vector<std::string> args_;
    std::vector<std::string> errors_;
};

/**
 * End-of-parse check every main() should call: reports usage
 * errors and unrecognized arguments to stderr under @p prog.
 * @return true when the argument list was fully consumed cleanly.
 */
bool finishArgs(const ArgList &args, const char *prog);

} // namespace siwi::runner

#endif // SIWI_RUNNER_CLI_HH
