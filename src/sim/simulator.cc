#include "sim/simulator.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <sstream>

#include "common/debug.hh"
#include "common/log.hh"
#include "sim/checkpoint.hh"

namespace gds::sim
{

const char *
runOutcomeName(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Completed:
        return "completed";
      case RunOutcome::Deadlock:
        return "deadlock";
      case RunOutcome::Livelock:
        return "livelock";
      case RunOutcome::CycleLimit:
        return "cycle-limit";
      case RunOutcome::Stopped:
        return "stopped";
      case RunOutcome::Timeout:
        return "timeout";
    }
    panic("bad run outcome %d", static_cast<int>(outcome));
}

namespace
{

/** Process-wide graceful-stop request (set from signal handlers). */
std::atomic<bool> stopFlag{false};

} // namespace

void
requestStop()
{
    stopFlag.store(true, std::memory_order_relaxed);
}

bool
stopRequested()
{
    return stopFlag.load(std::memory_order_relaxed);
}

void
clearStopRequest()
{
    stopFlag.store(false, std::memory_order_relaxed);
}

ErrorCode
runOutcomeError(RunOutcome outcome)
{
    switch (outcome) {
      case RunOutcome::Completed:
        return ErrorCode::Ok;
      case RunOutcome::Deadlock:
        return ErrorCode::Deadlock;
      case RunOutcome::Livelock:
        return ErrorCode::Livelock;
      case RunOutcome::CycleLimit:
        return ErrorCode::CycleLimit;
      case RunOutcome::Stopped:
        return ErrorCode::Stopped;
      case RunOutcome::Timeout:
        return ErrorCode::Timeout;
    }
    panic("bad run outcome %d", static_cast<int>(outcome));
}

std::string
RunReport::summary() const
{
    std::ostringstream os;
    os << runOutcomeName(outcome) << " after " << cycles << " cycles";
    if (!ok()) {
        os << " (last progress at cycle " << lastProgressCycle << ")";
        if (!components.empty()) {
            unsigned busy_count = 0;
            for (const ComponentDiag &d : components)
                busy_count += d.busy ? 1 : 0;
            os << "; " << busy_count << "/" << components.size()
               << " components busy";
        }
    }
    return os.str();
}

std::string
RunReport::snapshotText() const
{
    std::ostringstream os;
    for (const ComponentDiag &d : components) {
        os << "  " << d.path << ": " << (d.busy ? "busy" : "idle")
           << ", progress=" << d.progressCount << ", lastProgressAt="
           << d.lastProgressAt;
        if (!d.detail.empty())
            os << ", " << d.detail;
        os << "\n";
    }
    return os.str();
}

void
RunReport::throwIfFailed() const
{
    if (ok())
        return;
    const std::string msg = summary() + "\n" + snapshotText();
    switch (outcome) {
      case RunOutcome::Deadlock:
        throw DeadlockError(msg);
      case RunOutcome::Livelock:
        throw LivelockError(msg);
      case RunOutcome::CycleLimit:
        throw CycleLimitError(msg);
      case RunOutcome::Stopped:
        throw StoppedError(msg);
      case RunOutcome::Timeout:
        throw TimeoutError(msg);
      case RunOutcome::Completed:
        break;
    }
}

namespace
{

void
collectDiag(const Component &c, std::vector<ComponentDiag> &out)
{
    out.push_back(ComponentDiag{c.statsGroup().path(), c.busy(),
                                c.progressCount(), c.lastProgressAt(),
                                c.debugState()});
    for (const Component *child : c.children())
        collectDiag(*child, out);
}

} // namespace

std::vector<ComponentDiag>
Simulator::snapshot() const
{
    std::vector<ComponentDiag> diags;
    for (const Component *c : components)
        collectDiag(*c, diags);
    return diags;
}

std::uint64_t
Simulator::totalProgress() const
{
    std::uint64_t total = 0;
    for (const Component *c : components)
        total += c->subtreeProgress();
    return total;
}

namespace
{

void
accumulateProgress(const Component &c, std::uint64_t &progress, bool &busy)
{
    progress += c.progressCount();
    busy = busy || c.busy();
    for (const Component *child : c.children())
        accumulateProgress(*child, progress, busy);
}

} // namespace

Simulator::ProgressSnapshot
Simulator::progressSnapshot() const
{
    ProgressSnapshot snap;
    for (const Component *c : components)
        accumulateProgress(*c, snap.progress, snap.busy);
    return snap;
}

Simulator::SkipPlan
Simulator::clampedSkip(Cycle elapsed, Cycle next_check,
                       const RunLimits &limits) const
{
    Cycle horizon = Component::kNeverEvent;
    for (const Component *c : components)
        horizon = std::min(horizon, c->nextEventCycle());
    if (horizon <= 1)
        return {};

    // The next horizon-1 ticks are contractually pure waits. Clamp so no
    // observer boundary falls inside the skipped window: the watchdog
    // checkpoint and cycle budget are re-examined at loop top (elapsed may
    // land exactly on them), while a sampler or counter-track boundary
    // cycle must be reached by a real step() so its row carries the naive
    // cycle stamp.
    Cycle skip = horizon - 1;
    skip = std::min(skip, next_check - elapsed);
    skip = std::min(skip, limits.maxCycles - elapsed);
    if (_sampler != nullptr)
        skip = std::min(skip, _sampler->cyclesUntilNextSample(_cycle));
    if (_nextCounterAt != Component::kNeverEvent)
        skip = std::min(skip, _nextCounterAt - _cycle);
    // A skip that runs all the way to the horizon proves the very next
    // tick is the event itself: nothing changes during pure waits, so
    // re-deriving the horizon before that tick would burn a full
    // quiescence evaluation just to conclude "step now".
    return {skip, skip == horizon - 1};
}

void
Simulator::buildCounterTracks()
{
    // Enumerate every component subtree into flat counter tracks;
    // registration order is fixed before the first step, so the order is
    // deterministic (checkpoint restore depends on that).
    const std::function<void(Component *)> collect = [&](Component *c) {
        counterTracks.push_back(CounterTrack{
            c, _tracer->track(c->tracePath()), c->activityCounter()});
        for (Component *child : c->children())
            collect(child);
    };
    for (Component *c : components)
        collect(c);
}

void
Simulator::emitActivityCounters()
{
    // Lazily built: setTracer() clears the tracks, the first counter
    // boundary rebuilds them.
    if (counterTracks.empty())
        buildCounterTracks();
    for (CounterTrack &ct : counterTracks) {
        const std::uint64_t now = ct.component->activityCounter();
        _tracer->counter(ct.track, "activity",
                         static_cast<double>(now - ct.last), _cycle);
        ct.last = now;
    }
}

RunReport
Simulator::run(const std::function<bool()> &done, const RunLimits &limits,
               const RunHooks &hooks)
{
    gds_assert(limits.checkInterval > 0, "check interval must be positive");

    RunReport report;
    const Cycle start = _cycle;
    Cycle last_progress_cycle = 0; // elapsed cycles at last progress
    std::uint64_t last_progress_count = totalProgress();

    auto fail = [&](RunOutcome outcome) {
        report.outcome = outcome;
        report.cycles = _cycle - start;
        report.lastProgressCycle = last_progress_cycle;
        report.components = snapshot();
        log::warnf("sim", {}, "simulation %s", report.summary().c_str());
        DPRINTF(Watchdog, "diagnostic snapshot:\n%s",
                report.snapshotText().c_str());
        // Unconditional incident marker (DPRINTF routing into the tracer
        // only fires when the Watchdog category is also enabled).
        if (_tracer) {
            _tracer->instant(_tracer->track("watchdog"),
                             runOutcomeName(outcome), _cycle,
                             report.summary());
        }
        return report;
    };

    const bool fast_forward = limits.fastForward && fastForwardEligible();
    Cycle next_check = 0; // next elapsed cycle with a watchdog checkpoint
    bool event_due = false; // last skip ran to the horizon; step, don't ask

    // Checkpoint policy: periodic snapshots at elapsed-cycle boundaries
    // (reached exactly, like watchdog boundaries, because skips clamp to
    // them), a final snapshot on graceful stop or wall-clock timeout.
    const bool periodic_ckpt =
        static_cast<bool>(hooks.writeCheckpoint) &&
        hooks.checkpointInterval > 0;
    Cycle next_ckpt =
        periodic_ckpt ? hooks.checkpointInterval : Component::kNeverEvent;
    const bool wall_budgeted = hooks.wallBudgetSeconds > 0.0;
    const auto wall_start = std::chrono::steady_clock::now();

    while (!done()) {
        const Cycle elapsed = _cycle - start;
        if (elapsed >= limits.maxCycles)
            return fail(RunOutcome::CycleLimit);
        if (elapsed == next_check) {
            // One subtree traversal yields both the progress sum and the
            // busy verdict needed for the stall classification.
            const ProgressSnapshot snap = progressSnapshot();
            if (snap.progress != last_progress_count) {
                last_progress_count = snap.progress;
                last_progress_cycle = elapsed;
            } else if (elapsed - last_progress_cycle >= limits.stallCycles) {
                return fail(snap.busy ? RunOutcome::Livelock
                                      : RunOutcome::Deadlock);
            }
            next_check += limits.checkInterval;
            if (stopRequested()) {
                if (hooks.writeCheckpoint)
                    hooks.writeCheckpoint();
                report.outcome = RunOutcome::Stopped;
                report.cycles = _cycle - start;
                report.lastProgressCycle = last_progress_cycle;
                log::infof("sim", {}, "simulation %s",
                           report.summary().c_str());
                return report;
            }
            if (wall_budgeted &&
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                        .count() >= hooks.wallBudgetSeconds) {
                if (hooks.writeCheckpoint)
                    hooks.writeCheckpoint();
                return fail(RunOutcome::Timeout);
            }
        }
        if (elapsed == next_ckpt) {
            hooks.writeCheckpoint();
            next_ckpt += hooks.checkpointInterval;
        }
        if (fast_forward && !event_due) {
            const SkipPlan plan = clampedSkip(
                elapsed, std::min(next_check, next_ckpt), limits);
            if (plan.skip > 0) {
                for (Component *c : components)
                    c->skipCycles(plan.skip);
                _cycle += plan.skip;
                event_due = plan.eventNext;
                report.skippedCycles += plan.skip;
                ++report.skipWindows;
                continue;
            }
        }
        event_due = false;
        ++report.steppedCycles;
        step();
    }

    report.outcome = RunOutcome::Completed;
    report.cycles = _cycle - start;
    report.lastProgressCycle = _cycle - start;
    return report;
}

void
Simulator::saveState(Serializer &s) const
{
    s.writeU64(_cycle);
    s.writeBool(!counterTracks.empty());
    s.writeU64(counterTracks.size());
    for (const CounterTrack &ct : counterTracks)
        s.writeU64(ct.last);
}

void
Simulator::restoreState(Deserializer &d)
{
    _cycle = d.readU64();
    // Re-derive the counter boundary for the restored clock; setTracer()
    // computed it against the pre-restore cycle.
    if (_tracer != nullptr && _counterInterval != 0) {
        _nextCounterAt = _cycle % _counterInterval == 0
                             ? _cycle
                             : _cycle + _counterInterval -
                                   _cycle % _counterInterval;
    } else {
        _nextCounterAt = Component::kNeverEvent;
    }
    const bool tracks_built = d.readBool();
    const std::uint64_t n = d.readU64();
    counterTracks.clear();
    if (!tracks_built) {
        gds_require(n == 0, CheckpointError,
                    "checkpoint carries %llu counter-track baselines for "
                    "unbuilt tracks", static_cast<unsigned long long>(n));
        return;
    }
    gds_require(_tracer != nullptr && _counterInterval != 0,
                CheckpointError,
                "checkpoint carries counter tracks but this run has no "
                "tracer with a counter interval attached");
    buildCounterTracks();
    gds_require(n == counterTracks.size(), CheckpointError,
                "checkpoint carries %llu counter-track baselines, this "
                "component tree has %zu",
                static_cast<unsigned long long>(n), counterTracks.size());
    for (CounterTrack &ct : counterTracks)
        ct.last = d.readU64();
}

} // namespace gds::sim
