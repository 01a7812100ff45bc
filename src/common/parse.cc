#include "common/parse.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/log.hh"

namespace gds::common
{

namespace
{

/** Shared shape check: non-empty, and every boundary case a C parser
 *  would wave through (sign, whitespace, empty) is rejected up front. */
Status
rejectShape(const std::string &text)
{
    if (text.empty())
        return Status::failure(ErrorCode::Config, "empty value");
    const unsigned char first = static_cast<unsigned char>(text.front());
    if (first == '-' || first == '+')
        return Status::failure(ErrorCode::Config,
                               "sign not allowed (value is unsigned)");
    if (std::isspace(first) ||
        std::isspace(static_cast<unsigned char>(text.back())))
        return Status::failure(ErrorCode::Config,
                               "leading/trailing whitespace");
    return Status();
}

} // namespace

Result<std::uint64_t>
parseU64(const std::string &text)
{
    if (const Status s = rejectShape(text); !s.ok())
        return s;
    if (!std::isdigit(static_cast<unsigned char>(text.front())))
        return Status::failure(ErrorCode::Config, "not a decimal number");
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE)
        return Status::failure(ErrorCode::Config,
                               "value overflows 64 bits");
    if (end != text.c_str() + text.size())
        return Status::failure(ErrorCode::Config,
                               "trailing garbage after number");
    return static_cast<std::uint64_t>(v);
}

Result<double>
parseF64(const std::string &text)
{
    if (const Status s = rejectShape(text); !s.ok())
        return s;
    if (!std::isdigit(static_cast<unsigned char>(text.front())) &&
        text.front() != '.')
        return Status::failure(ErrorCode::Config, "not a number");
    errno = 0;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE)
        return Status::failure(ErrorCode::Config, "value out of range");
    if (end != text.c_str() + text.size())
        return Status::failure(ErrorCode::Config,
                               "trailing garbage after number");
    if (!(v >= 0.0) || v > std::numeric_limits<double>::max())
        return Status::failure(ErrorCode::Config,
                               "value must be a finite non-negative "
                               "number");
    return v;
}

std::uint64_t
requireU64(const std::string &what, const std::string &text,
           std::uint64_t min, std::uint64_t max)
{
    const Result<std::uint64_t> r = parseU64(text);
    if (!r) {
        throw ConfigError(what + ": invalid value '" + text + "' (" +
                          r.status().message() + ")");
    }
    if (r.value() < min || r.value() > max) {
        throw ConfigError(what + ": value " + text + " out of range [" +
                          std::to_string(min) + ", " +
                          std::to_string(max) + "]");
    }
    return r.value();
}

double
requireF64(const std::string &what, const std::string &text)
{
    const Result<double> r = parseF64(text);
    if (!r) {
        throw ConfigError(what + ": invalid value '" + text + "' (" +
                          r.status().message() + ")");
    }
    return r.value();
}

std::uint64_t
parseEnvU64(const char *name, std::uint64_t def, std::uint64_t min,
            std::uint64_t max)
{
    const char *env = std::getenv(name);
    if (!env)
        return def;
    const Result<std::uint64_t> r = parseU64(env);
    if (!r) {
        log::warnf("config", {},
                   "ignoring invalid %s='%s' (%s); using default %llu", name,
                   env, r.status().message().c_str(),
                   static_cast<unsigned long long>(def));
        return def;
    }
    if (r.value() < min || r.value() > max) {
        log::warnf("config", {},
                   "ignoring out-of-range %s=%s (allowed [%llu, %llu]); using "
                   "default %llu", name, env,
                   static_cast<unsigned long long>(min),
                   static_cast<unsigned long long>(max),
                   static_cast<unsigned long long>(def));
        return def;
    }
    return r.value();
}

double
parseEnvF64(const char *name, double def)
{
    const char *env = std::getenv(name);
    if (!env)
        return def;
    const Result<double> r = parseF64(env);
    if (!r) {
        log::warnf("config", {},
                   "ignoring invalid %s='%s' (%s); using default %g", name,
                   env, r.status().message().c_str(), def);
        return def;
    }
    return r.value();
}

std::string
parseEnvStr(const char *name, const std::string &def)
{
    const char *env = std::getenv(name);
    return env != nullptr ? std::string(env) : def;
}

bool
envFlag(const char *name)
{
    return std::getenv(name) != nullptr;
}

std::string
lowercase(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        if (c >= 'A' && c <= 'Z')
            c = static_cast<char>(c - 'A' + 'a');
    return out;
}

} // namespace gds::common
