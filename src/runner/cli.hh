/**
 * @file
 * Tiny command-line helpers for the benches and siwi-run.
 */

#ifndef SIWI_RUNNER_CLI_HH
#define SIWI_RUNNER_CLI_HH

#include <span>
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

    /** option() parsed as a double. */
    bool doubleOption(const std::string &name, double *value);

    /**
     * option() parsed as one of @p names, matched the way config
     * enums are (enumIndex: case-insensitive): @p index is the
     * value's position in @p names. An unknown name is a usage
     * error that lists @p names.
     */
    bool enumOption(const std::string &name,
                    std::span<const char *const> names,
                    size_t *index);

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

/**
 * Consume every repeatable "--sms N" occurrence into an SM-count
 * axis. Reports bad values to stderr under @p prog.
 * @return false on a malformed entry; @p out untouched when the
 *         flag is absent.
 */
bool smsAxisOption(ArgList &args, const char *prog,
                   std::vector<unsigned> *out);

} // namespace siwi::runner

#endif // SIWI_RUNNER_CLI_HH
