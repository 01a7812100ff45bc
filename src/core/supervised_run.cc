/**
 * @file
 * The supervised-run driver shared by GraphDynS and Graphicionado.
 */

#include "core/supervised_run.hh"

#include <csignal>
#include <optional>

#include "common/log.hh"
#include "common/parse.hh"
#include "core/gds_accel.hh"
#include "graph/csr.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"

namespace gds::core
{

namespace
{

/**
 * Layout version of the checkpoint payload written below. v2: the HBM
 * saves per-channel burst-completion FIFOs instead of a global completion
 * heap, and its request slab drops the per-request pending count. v3: the
 * accelerators read fetched edges from the CSR, so neither saves per-record
 * edge copies, and GraphDynS saves its coalesced edge fetches as one flat
 * member array plus per-batch begin offsets.
 */
constexpr std::uint32_t kStateVersion = 3;

/** Detaches the fault injector from the target on every exit path, so
 *  no component keeps a pointer to the destroyed injector. */
class FaultDetachGuard
{
  public:
    explicit FaultDetachGuard(const SupervisedTarget &t) : target(t) {}
    ~FaultDetachGuard() { target.attachFaults(nullptr); }

    FaultDetachGuard(const FaultDetachGuard &) = delete;
    FaultDetachGuard &operator=(const FaultDetachGuard &) = delete;

  private:
    const SupervisedTarget &target;
};

} // namespace

sim::RunReport
supervisedRun(const SupervisedTarget &target, const RunOptions &options,
              const std::function<bool()> &done)
{
    // Supervised execution: a Simulator drives the top component under a
    // watchdog that distinguishes completion, deadlock, livelock and
    // cycle-budget exhaustion instead of asserting on runaway simulations.
    sim::Simulator driver;
    driver.add(&target.top);
    if (options.sampler) {
        if (options.sampler->probeCount() == 0)
            target.registerProbes(*options.sampler);
        driver.setSampler(options.sampler);
    }
    obs::Tracer *const tracer = obs::activeTracer();
    driver.setTracer(tracer, options.traceCounterInterval);
    sim::RunLimits limits;
    limits.maxCycles =
        options.cycleBudget != 0 ? options.cycleBudget : 50'000'000'000ULL;
    if (options.stallCycles != 0)
        limits.stallCycles = options.stallCycles;
    limits.fastForward = options.fastForward && target.allowFastForward &&
                         !common::envFlag("GDS_NO_FASTFORWARD");

    std::optional<sim::FaultInjector> injector;
    const FaultDetachGuard detach(target);
    if (options.faults.any()) {
        injector.emplace(options.faults); // throws ConfigError if invalid
        target.attachFaults(&*injector);
    }

    // Checkpoint wiring. The payload is the top component (with its HBM
    // and crossbar), then the optional fault/sampler/tracer state, then
    // the driver: one fixed order on both sides.
    std::optional<sim::CheckpointStore> store;
    std::string identity;
    if (!options.checkpoint.dir.empty()) {
        identity = gds::detail::vformat(
            "%s|%s|V=%u|E=%llu|src=%u|%s", target.kind,
            target.algorithm.c_str(), target.graph.numVertices(),
            static_cast<unsigned long long>(target.graph.numEdges()),
            options.source, options.checkpoint.identity.c_str());
        store.emplace(options.checkpoint.dir, options.checkpoint.basename);
    }

    if (store && options.checkpoint.resume) {
        std::string reason;
        if (const auto loaded = store->loadLatest(&reason)) {
            // A checkpoint of another layout or run is refused, never
            // restored; the run then starts clean rather than failing.
            std::string refusal;
            try {
                loaded->meta.expectCompatible(kStateVersion, identity);
            } catch (const CheckpointError &e) {
                refusal = e.what();
            }
            if (!refusal.empty()) {
                log::warnf("ckpt", {}, "ignoring checkpoint %s: %s; starting "
                           "clean", store->currentPath().c_str(),
                           refusal.c_str());
            } else {
                sim::Deserializer d(loaded->payload);
                target.top.restoreState(d);
                const bool had_injector = d.readBool();
                gds_require(had_injector == injector.has_value(),
                            CheckpointError,
                            "checkpoint fault-injection state does not "
                            "match this run's fault plan");
                if (injector)
                    injector->restoreState(d);
                const bool had_sampler = d.readBool();
                gds_require(had_sampler == (options.sampler != nullptr),
                            CheckpointError,
                            "checkpoint sampler state does not match this "
                            "run's sampler configuration");
                if (options.sampler)
                    options.sampler->restoreState(d);
                const bool had_tracer = d.readBool();
                gds_require(had_tracer == (tracer != nullptr),
                            CheckpointError,
                            "checkpoint tracer state does not match this "
                            "run's tracer configuration");
                if (tracer)
                    tracer->restoreState(d);
                driver.restoreState(d);
                d.expectEnd();
                log::infof("ckpt", {}, "resumed from %s at cycle %llu%s",
                           (loaded->usedFallback ? store->previousPath()
                                                 : store->currentPath())
                               .c_str(),
                           static_cast<unsigned long long>(loaded->meta.cycle),
                           loaded->usedFallback
                               ? " (previous checkpoint; current was invalid)"
                               : "");
            }
        } else if (!reason.empty()) {
            log::warnf("ckpt", {}, "no usable checkpoint (%s); starting clean",
                       reason.c_str());
        }
    }

    sim::RunHooks hooks;
    hooks.wallBudgetSeconds = options.wallBudgetSeconds;
    if (store) {
        hooks.checkpointInterval = options.checkpoint.interval;
        hooks.writeCheckpoint = [&] {
            sim::Serializer s;
            target.top.saveState(s);
            s.writeBool(injector.has_value());
            if (injector)
                injector->saveState(s);
            s.writeBool(options.sampler != nullptr);
            if (options.sampler)
                options.sampler->saveState(s);
            s.writeBool(tracer != nullptr);
            if (tracer)
                tracer->saveState(s);
            driver.saveState(s);
            sim::CheckpointMeta meta;
            meta.stateVersion = kStateVersion;
            meta.identity = identity;
            meta.cycle = target.now;
            store->write(meta, s);
        };
    }

    // Crash injection for the checkpoint tests: die without any cleanup,
    // exactly like an external SIGKILL preemption. The driver's clock
    // counts the cycles elapsed in this run, resumed ones included. Only
    // a killing run pays for the wrapper; others pass done straight on.
    const std::function<bool()> done_or_kill = [&] {
        if (driver.cycle() >= options.killAtCycle)
            std::raise(SIGKILL);
        return done();
    };
    const sim::RunReport report = driver.run(
        options.killAtCycle != 0 ? done_or_kill : done, limits, hooks);

    // A completed run leaves nothing to resume; drop its checkpoints so a
    // later run under the same base name starts clean.
    if (store && report.outcome == sim::RunOutcome::Completed)
        store->removeAll();
    return report;
}

} // namespace gds::core
