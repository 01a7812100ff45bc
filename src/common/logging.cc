#include "common/logging.hh"

#include <cstdarg>
#include <mutex>
#include <vector>

namespace gds
{
namespace detail
{

namespace
{

/** Serializes stderr emission so concurrent workers never interleave
 *  messages (function-local static: safe before/after main). */
std::mutex &
emitMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

std::string
vformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string out = vformat(fmt, args);
    va_end(args);
    return out;
}

std::string
vformat(const char *fmt, va_list args)
{
    va_list sizing;
    va_copy(sizing, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<std::size_t>(needed));
}

void
emitRawLine(const std::string &line)
{
    const std::lock_guard<std::mutex> lock(emitMutex());
    std::fprintf(stderr, "%s\n", line.c_str());
}

void
terminatePanic(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
terminateFatal(const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

} // namespace detail
} // namespace gds
