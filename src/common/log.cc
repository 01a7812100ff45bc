#include "common/log.hh"

#include <cstdarg>

#include "common/jsonio.hh"
#include "common/parse.hh"

namespace gds::log
{

namespace
{

/**
 * Knob parsing runs inside a function-local-static initializer, where
 * calling warnf() would recurse back into threshold() and deadlock the
 * static-init guard. Complaints about malformed knob values are instead
 * emitted directly through the raw serialized-stderr path.
 */
void
complainRaw(const char *knob, const std::string &got, const char *fallback)
{
    detail::emitRawLine("warn: " + std::string(knob) + "='" + got +
                        "' is not a recognized value; using " + fallback);
}

Level
parseLevelKnob()
{
    const std::string text = common::parseEnvStr("GDS_LOG_LEVEL", "info");
    if (text == "debug")
        return Level::Debug;
    if (text == "info")
        return Level::Info;
    if (text == "warn")
        return Level::Warn;
    if (text == "error")
        return Level::Error;
    complainRaw("GDS_LOG_LEVEL", text, "info");
    return Level::Info;
}

Format
parseFormatKnob()
{
    const std::string text = common::parseEnvStr("GDS_LOG_FORMAT", "human");
    if (text == "human")
        return Format::Human;
    if (text == "json")
        return Format::Json;
    complainRaw("GDS_LOG_FORMAT", text, "human");
    return Format::Human;
}

} // namespace

const char *
levelName(Level level)
{
    switch (level) {
      case Level::Debug: return "debug";
      case Level::Info: return "info";
      case Level::Warn: return "warn";
      case Level::Error: return "error";
    }
    return "info";
}

Level
threshold()
{
    static const Level level = parseLevelKnob();
    return level;
}

Format
format()
{
    static const Format fmt = parseFormatKnob();
    return fmt;
}

std::string
formatHuman(Level level, const std::string &subsys, const std::string &msg,
            const Fields &fields)
{
    std::string line = levelName(level);
    line += ": ";
    if (!subsys.empty()) {
        line += "[";
        line += subsys;
        line += "] ";
    }
    line += msg;
    if (!fields.empty()) {
        line += " (";
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i)
                line += ", ";
            line += fields[i].key;
            line += "=";
            line += fields[i].value;
        }
        line += ")";
    }
    return line;
}

std::string
formatJson(Level level, const std::string &subsys, const std::string &msg,
            const Fields &fields)
{
    std::string line = "{\"level\":";
    line += common::jsonQuote(levelName(level));
    if (!subsys.empty()) {
        line += ",\"subsys\":";
        line += common::jsonQuote(subsys);
    }
    line += ",\"msg\":";
    line += common::jsonQuote(msg);
    for (const Field &field : fields) {
        line += ",";
        line += common::jsonQuote(field.key);
        line += ":";
        line += common::jsonQuote(field.value);
    }
    line += "}";
    return line;
}

void
write(Level level, const std::string &subsys, const Fields &fields,
      const std::string &msg)
{
    if (static_cast<int>(level) < static_cast<int>(threshold()))
        return;
    const std::string line = format() == Format::Json
        ? formatJson(level, subsys, msg, fields)
        : formatHuman(level, subsys, msg, fields);
    detail::emitRawLine(line);
}

namespace
{

__attribute__((format(printf, 4, 0))) void
vwritef(Level level, const std::string &subsys, const Fields &fields,
        const char *fmt, va_list args)
{
    // Cheap early-out before formatting: dropped lines cost one compare.
    if (static_cast<int>(level) < static_cast<int>(threshold()))
        return;
    write(level, subsys, fields, detail::vformat(fmt, args));
}

} // namespace

void
writef(Level level, const std::string &subsys, const Fields &fields,
       const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vwritef(level, subsys, fields, fmt, args);
    va_end(args);
}

void
infof(const std::string &subsys, const Fields &fields, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vwritef(Level::Info, subsys, fields, fmt, args);
    va_end(args);
}

void
warnf(const std::string &subsys, const Fields &fields, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vwritef(Level::Warn, subsys, fields, fmt, args);
    va_end(args);
}

void
errorf(const std::string &subsys, const Fields &fields, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vwritef(Level::Error, subsys, fields, fmt, args);
    va_end(args);
}

} // namespace gds::log
