/**
 * @file
 * Checked numeric parsing shared by every user-input boundary: CLI
 * flags, daemon request fields and environment variables.
 *
 * The bare std::stoul / strtoul idioms these helpers replace have three
 * documented traps:
 *  - std::stoul throws std::invalid_argument / std::out_of_range, which
 *    escape CLI parsers as uncaught-exception crashes;
 *  - strtoul silently accepts a leading '-' by wrapping around, so
 *    GDS_CELL_RETRIES=-1 became ~4 billion retries;
 *  - trailing garbage ("10x") is accepted or rejected inconsistently
 *    from call site to call site.
 *
 * parseU64/parseF64 are strict (whole string, no sign, overflow is an
 * error) and report through Result<T>. requireU64/requireF64 are the
 * throwing wrappers for CLI/request parsing: failure is a ConfigError
 * naming the offending flag, so drivers can print usage text instead of
 * crashing. parseEnvU64/parseEnvF64 are the environment-variable policy:
 * an invalid value warns once and falls back to the documented default.
 */

#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "common/error.hh"

namespace gds::common
{

/**
 * Parse @p text as an unsigned 64-bit decimal integer. Strict: the whole
 * string must be consumed, signs (including '+') and leading/trailing
 * whitespace are rejected, and a value above
 * std::numeric_limits<uint64_t>::max() is an overflow failure, never a
 * wraparound.
 */
Result<std::uint64_t> parseU64(const std::string &text);

/**
 * Parse @p text as a finite, non-negative double. Strict like
 * parseU64(): whole string, no leading/trailing whitespace, and "nan",
 * "inf" and negative values are rejected.
 */
Result<double> parseF64(const std::string &text);

/**
 * parseU64 for a CLI flag or request field: throws ConfigError naming
 * @p what ("--num-pes", request field "iters", ...) on any parse
 * failure or when the value falls outside [@p min, @p max].
 */
std::uint64_t
requireU64(const std::string &what, const std::string &text,
           std::uint64_t min = 0,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** requireU64 for non-negative doubles (wall budgets, rates). */
double requireF64(const std::string &what, const std::string &text);

/**
 * Environment-variable policy for unsigned integer knobs: unset returns
 * @p def; a malformed value (sign, trailing garbage, overflow) or one
 * outside [@p min, @p max] warns and returns @p def. Never throws — a
 * bad environment must not kill a long experiment run.
 */
std::uint64_t
parseEnvU64(const char *name, std::uint64_t def, std::uint64_t min = 0,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/**
 * Environment-variable policy for non-negative double knobs (e.g. wall
 * budgets in seconds): unset or invalid returns @p def with a warning.
 */
double parseEnvF64(const char *name, double def);

/**
 * Environment-variable policy for string knobs (paths, mode names):
 * unset returns @p def verbatim. No validation beyond presence — the
 * caller owns interpreting the value — but every GDS_* read still goes
 * through one audited chokepoint (lint rule env-knob-discipline).
 */
std::string parseEnvStr(const char *name, const std::string &def);

/** True when the environment variable @p name is set (to anything). */
bool envFlag(const char *name);

/** ASCII-lowercased copy of @p s, for case-insensitive name matching
 *  (algorithm, system and request-op names). */
std::string lowercase(const std::string &s);

} // namespace gds::common
