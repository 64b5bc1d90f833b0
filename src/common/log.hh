/**
 * @file
 * gem5-style status and error reporting helpers.
 *
 * panic() is for internal simulator bugs (aborts); fatal() is for
 * user-caused conditions such as malformed kernels (exits); warn()
 * and inform() report without stopping.
 */

#ifndef SIWI_COMMON_LOG_HH
#define SIWI_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace siwi {

/** Internal: report and abort. Use via the panic() macro. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
/** Internal: report and exit(1). Use via the fatal() macro. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
/** Internal: print a warning. Use via the warn() macro. */
void warnImpl(const std::string &msg);
/** Internal: print an informational message. Use via inform(). */
void informImpl(const std::string &msg);

/** Whether warn()/inform() output is printed (tests silence it). */
void setLogQuiet(bool quiet);

namespace detail {

inline void
formatInto(std::ostringstream &)
{
}

template <typename T, typename... Rest>
void
formatInto(std::ostringstream &os, const T &v, const Rest &...rest)
{
    os << v;
    formatInto(os, rest...);
}

template <typename... Args>
std::string
formatAll(const Args &...args)
{
    std::ostringstream os;
    formatInto(os, args...);
    return os.str();
}

} // namespace detail
} // namespace siwi

/** Abort with a message: something that should never happen happened. */
#define panic(...) \
    ::siwi::panicImpl(__FILE__, __LINE__, \
                      ::siwi::detail::formatAll(__VA_ARGS__))

/** Exit with a message: the user asked for something unsupported. */
#define fatal(...) \
    ::siwi::fatalImpl(__FILE__, __LINE__, \
                      ::siwi::detail::formatAll(__VA_ARGS__))

/** Non-fatal warning. */
#define warn(...) \
    ::siwi::warnImpl(::siwi::detail::formatAll(__VA_ARGS__))

/** Informational message. */
#define inform(...) \
    ::siwi::informImpl(::siwi::detail::formatAll(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define siwi_assert(cond, ...) \
    do { \
        if (!(cond)) \
            panic("assertion failed: " #cond " ", \
                  ::siwi::detail::formatAll(__VA_ARGS__)); \
    } while (0)

#endif // SIWI_COMMON_LOG_HH
