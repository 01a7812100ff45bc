#include "obs/trace.hh"

#include <fstream>
#include <map>

#include "common/debug.hh"
#include "common/log.hh"
#include "stats/json.hh"

namespace gds::obs
{

Tracer::Tracer(std::string process_name)
    : processName(std::move(process_name))
{}

TrackId
Tracer::track(const std::string &name)
{
    for (TrackId id = 0; id < trackNames.size(); ++id) {
        if (trackNames[id] == name)
            return id;
    }
    trackNames.push_back(name);
    openDepth.push_back(0);
    return static_cast<TrackId>(trackNames.size() - 1);
}

const std::string &
Tracer::trackName(TrackId id) const
{
    gds_assert(id < trackNames.size(), "bad track id %u", id);
    return trackNames[id];
}

void
Tracer::begin(TrackId track_id, std::string name, Cycle cycle)
{
    gds_assert(track_id < trackNames.size(), "bad track id %u", track_id);
    ++openDepth[track_id];
    events.push_back(Event{'B', track_id, cycle, std::move(name), {}, 0.0});
}

void
Tracer::end(TrackId track_id, Cycle cycle)
{
    gds_assert(track_id < trackNames.size(), "bad track id %u", track_id);
    gds_assert(openDepth[track_id] > 0,
               "end() without a matching begin() on track '%s'",
               trackNames[track_id].c_str());
    --openDepth[track_id];
    events.push_back(Event{'E', track_id, cycle, {}, {}, 0.0});
}

void
Tracer::instant(TrackId track_id, std::string name, Cycle cycle,
                std::string detail)
{
    gds_assert(track_id < trackNames.size(), "bad track id %u", track_id);
    events.push_back(Event{'i', track_id, cycle, std::move(name),
                           std::move(detail), 0.0});
}

void
Tracer::counter(TrackId track_id, const std::string &series, double value,
                Cycle cycle)
{
    gds_assert(track_id < trackNames.size(), "bad track id %u", track_id);
    // Counter tracks are keyed by (pid, name) in the trace UIs, so the
    // event name carries the track name to keep components separate.
    events.push_back(Event{'C', track_id, cycle,
                           trackNames[track_id] + "." + series, {}, value});
}

void
Tracer::endAllOpen(Cycle cycle)
{
    for (TrackId id = 0; id < trackNames.size(); ++id) {
        while (openDepth[id] > 0)
            end(id, cycle);
    }
}

std::size_t
Tracer::openEventCount() const
{
    std::size_t open = 0;
    for (const unsigned d : openDepth)
        open += d;
    return open;
}

bool
Tracer::wellNested(std::string *error) const
{
    auto fail = [&](const std::string &what) {
        if (error != nullptr)
            *error = what;
        return false;
    };
    // Per-track stacks of open event names, replayed in record order.
    std::map<TrackId, std::vector<const Event *>> stacks;
    for (const Event &e : events) {
        if (e.phase == 'B') {
            stacks[e.tid].push_back(&e);
        } else if (e.phase == 'E') {
            auto &stack = stacks[e.tid];
            if (stack.empty()) {
                return fail("E without open B on track '" +
                            trackNames[e.tid] + "' at cycle " +
                            std::to_string(e.ts));
            }
            if (e.ts < stack.back()->ts) {
                return fail("E before its B on track '" +
                            trackNames[e.tid] + "' at cycle " +
                            std::to_string(e.ts));
            }
            stack.pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks) {
        if (!stack.empty()) {
            return fail("unclosed event '" + stack.back()->name +
                        "' on track '" + trackNames[tid] + "'");
        }
    }
    return true;
}

void
Tracer::write(std::ostream &os) const
{
    os.precision(17);
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Metadata: the process name and one labelled thread per track.
    sep();
    os << R"({"ph":"M","pid":1,"tid":0,"name":"process_name","args":)"
       << "{\"name\":";
    stats::emitJsonString(os, processName);
    os << "}}";
    for (TrackId id = 0; id < trackNames.size(); ++id) {
        sep();
        os << R"({"ph":"M","pid":1,"tid":)" << (id + 1)
           << R"(,"name":"thread_name","args":{"name":)";
        stats::emitJsonString(os, trackNames[id]);
        os << "}}";
    }

    for (const Event &e : events) {
        sep();
        os << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":"
           << (e.tid + 1) << ",\"ts\":" << e.ts;
        if (e.phase != 'E') {
            os << ",\"name\":";
            stats::emitJsonString(os, e.name);
        }
        if (e.phase == 'i') {
            os << ",\"s\":\"t\"";
            if (!e.detail.empty()) {
                os << ",\"args\":{\"detail\":";
                stats::emitJsonString(os, e.detail);
                os << '}';
            }
        } else if (e.phase == 'C') {
            os << ",\"args\":{\"value\":";
            stats::emitJsonNumber(os, e.value);
            os << '}';
        }
        os << '}';
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":"
          "{\"clock\":\"1 ts = 1 simulated cycle\"}}\n";
}

bool
Tracer::writeFile(const std::string &path) const
{
    std::ofstream out(path);
    if (out)
        write(out);
    if (!out) {
        log::warnf("obs", {}, "cannot write trace file '%s'", path.c_str());
        return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Active-tracer plumbing + DPRINTF routing.
// ---------------------------------------------------------------------

namespace
{

thread_local Tracer *currentTracer = nullptr;

/** debug::LineSink adapter: a DPRINTF line becomes an instant event on
 *  the emitting component's track, stamped with its cycle. */
void
traceDebugLine(void *obj, debug::Flag flag, Cycle cycle,
               const char *component, const char *text)
{
    Tracer *tracer = static_cast<Tracer *>(obj);
    const TrackId id =
        tracer->track(component != nullptr ? component : "debug");
    tracer->instant(id, text, cycle, debug::flagName(flag));
}

} // namespace

Tracer *
activeTracer()
{
    return currentTracer;
}

ScopedActiveTracer::ScopedActiveTracer(Tracer *tracer)
    : previous(currentTracer)
{
    currentTracer = tracer;
    debug::setLineSink(tracer != nullptr ? traceDebugLine : nullptr,
                       tracer);
}

ScopedActiveTracer::~ScopedActiveTracer()
{
    currentTracer = previous;
    debug::setLineSink(previous != nullptr ? traceDebugLine : nullptr,
                       previous);
}

} // namespace gds::obs
