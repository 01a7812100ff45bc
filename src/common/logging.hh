/**
 * @file
 * gem5-flavoured fatal-error reporting. panic() flags an internal
 * simulator bug and aborts; fatal() flags a user/configuration error and
 * exits. Survivable conditions are reported through common/log
 * (log::warnf / log::infof) with a subsystem tag.
 */

#pragma once

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace gds
{

namespace detail
{

[[noreturn]] void terminatePanic(const std::string &msg,
                                 const char *file, int line);
[[noreturn]] void terminateFatal(const std::string &msg);

/** Emit one already-formatted line through the mutex-serialized stderr
 *  path, verbatim. The low-level chokepoint under common/log. */
void emitRawLine(const std::string &line);

/** Minimal printf-style formatter returning a std::string. */
std::string vformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** vformat() over a started argument list, which it consumes the way
 *  vprintf does; va_end stays with the caller. */
std::string vformat(const char *fmt, va_list args)
    __attribute__((format(printf, 1, 0)));

} // namespace detail

/** Abort with a message: something happened that is a simulator bug. */
#define panic(...)                                                          \
    ::gds::detail::terminatePanic(::gds::detail::vformat(__VA_ARGS__),      \
                                  __FILE__, __LINE__)

/** Exit with a message: the user asked for something unsupported/invalid. */
#define fatal(...)                                                          \
    ::gds::detail::terminateFatal(::gds::detail::vformat(__VA_ARGS__))

/** panic() unless the invariant holds. Always compiled in. */
#define gds_assert(cond, ...)                                               \
    do {                                                                    \
        if (!(cond))                                                        \
            panic("assertion '%s' failed: %s", #cond,                       \
                  ::gds::detail::vformat(__VA_ARGS__).c_str());             \
    } while (0)

} // namespace gds
