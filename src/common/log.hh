/**
 * @file
 * Structured, leveled logging for the service and harness layers.
 *
 * Every line the project emits on stderr funnels through one
 * mutex-serialized chokepoint (detail::emitRawLine in common/logging), so
 * concurrent workers never interleave partial lines. This layer is the
 * one logging front-end on top of that chokepoint and adds:
 *
 *  - severity levels (debug < info < warn < error) with a process-wide
 *    threshold read once from GDS_LOG_LEVEL (default "info");
 *  - two output formats selected by GDS_LOG_FORMAT: "human" (the
 *    traditional `warn: [subsys] message (key=value)` lines) and "json"
 *    (one JSON object per line, machine-ingestable by log shippers);
 *  - a per-subsystem tag ("harness", "obs", "config", "fs", "sim",
 *    "ckpt", "gds", "svc", "cli") so a fleet of daemons can be filtered
 *    by layer; and
 *  - structured correlation fields — most importantly the per-job "job"
 *    (jobId) and "configHash" fields the simulation service attaches, so
 *    one job's queue/load/sim/validate lifecycle can be grepped out of a
 *    busy daemon's log.
 *
 * Only panic()/fatal()/gds_assert() (common/logging) and the GDS_DPRINTF
 * debug trace (common/debug) emit outside this layer.
 *
 * Both knobs are parsed through common/parse (GDS_LOG_LEVEL /
 * GDS_LOG_FORMAT are read via parseEnvStr, honoring the
 * env-knob-discipline lint rule); an unknown value warns once and falls
 * back to the documented default.
 */

#pragma once

#include <string>
#include <vector>

#include "common/logging.hh"

namespace gds::log
{

/** Severity levels, least to most severe. */
enum class Level
{
    Debug = 0,
    Info,
    Warn,
    Error,
};

/** Lowercase level name ("debug", "info", "warn", "error"). */
const char *levelName(Level level);

/** Output formats (GDS_LOG_FORMAT). */
enum class Format
{
    Human, ///< `warn: [svc] message (job=j1)` — the traditional lines
    Json,  ///< `{"level":"warn","subsys":"svc","msg":...,"job":"j1"}`
};

/**
 * The process-wide emission threshold: lines below it are dropped.
 * Read once from GDS_LOG_LEVEL ("debug", "info", "warn" or "error");
 * unset or unknown values fall back to Info (unknown warns once).
 */
Level threshold();

/** The process-wide output format, read once from GDS_LOG_FORMAT
 *  ("human" or "json"; unknown warns once and falls back to human). */
Format format();

/** One structured correlation field (rendered as key=value / JSON). */
struct Field
{
    std::string key;
    std::string value;
};

using Fields = std::vector<Field>;

/**
 * Render one line in the human format:
 * `<level>: [<subsys>] <msg> (k=v, k=v)`. The subsystem bracket and the
 * field list are omitted when empty.
 */
std::string formatHuman(Level level, const std::string &subsys,
                        const std::string &msg, const Fields &fields);

/**
 * Render one line in the JSON format: a single RFC 8259 object with
 * "level", "subsys" (when non-empty), "msg" and one member per field, in
 * field order. Deterministic: no timestamp or pid members, so log lines
 * are byte-comparable across runs (shippers stamp arrival times).
 */
std::string formatJson(Level level, const std::string &subsys,
                       const std::string &msg, const Fields &fields);

/**
 * Emit one line through the serialized stderr path iff @p level passes
 * threshold(). The format is chosen by format().
 */
void write(Level level, const std::string &subsys, const Fields &fields,
           const std::string &msg);

/** printf-style write(). The fields ride along unformatted. */
void writef(Level level, const std::string &subsys, const Fields &fields,
            const char *fmt, ...) __attribute__((format(printf, 4, 5)));

// Convenience wrappers for the levels call sites use.

void infof(const std::string &subsys, const Fields &fields, const char *fmt,
           ...) __attribute__((format(printf, 3, 4)));
void warnf(const std::string &subsys, const Fields &fields, const char *fmt,
           ...) __attribute__((format(printf, 3, 4)));
void errorf(const std::string &subsys, const Fields &fields,
            const char *fmt, ...) __attribute__((format(printf, 3, 4)));

} // namespace gds::log
