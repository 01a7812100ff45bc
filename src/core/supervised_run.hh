/**
 * @file
 * The supervised-run driver shared by both accelerator top levels
 * (GraphDynS and the Graphicionado baseline), so the two simulators of
 * the headline comparison run under one set of rules: the Simulator with
 * its sampler and tracer, the watchdog limits, fault injection, the
 * checkpoint payload and its resume checks, and the crash-injection hook.
 * An accelerator's run() keeps only its own initialization and the
 * RunResult it reports.
 */

#pragma once

#include <functional>
#include <string>

#include "common/types.hh"
#include "sim/simulator.hh"

namespace gds::graph
{
class Csr;
} // namespace gds::graph

namespace gds::sim
{
class FaultInjector;
} // namespace gds::sim

namespace gds::core
{

struct RunOptions;

/** What supervisedRun() needs to know about the accelerator it drives. */
struct SupervisedTarget
{
    /** The top component: the one the driver ticks, first in the payload. */
    sim::Component &top;
    /** The top's own clock; stamps each checkpoint's meta.cycle. */
    const Cycle &now;
    /** Checkpoint identity prefix ("graphdyns", "graphicionado"). */
    const char *kind;
    /** Algorithm name and graph: the rest of the checkpoint identity. */
    std::string algorithm;
    const graph::Csr &graph;
    /** Point the fault-capable components at an injector; called with
     *  nullptr to detach on every exit path. */
    std::function<void(sim::FaultInjector *)> attachFaults;
    /** Register the default probe set on a sampler that has none. */
    std::function<void(obs::Sampler &)> registerProbes;
    /** False when the accelerator rules fast-forward out for this run. */
    bool allowFastForward = true;
};

/**
 * Drive @p target until @p done holds, under the watchdog, budget, fault,
 * checkpoint and resume policy of @p options. The checkpoint payload is
 * the top component, then the optional fault injector, sampler and
 * tracer state (each behind a presence flag), then the driver; the
 * identity is "<kind>|<algo>|V=..|E=..|src=..|<salt>" at state version 1.
 * A completed run removes its checkpoints.
 *
 * @throws ConfigError on an invalid fault plan
 * @throws CheckpointError when a matching checkpoint cannot be restored
 */
sim::RunReport supervisedRun(const SupervisedTarget &target,
                             const RunOptions &options,
                             const std::function<bool()> &done);

} // namespace gds::core
