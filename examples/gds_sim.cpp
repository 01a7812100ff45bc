/**
 * @file
 * gds_sim: a command-line driver exposing the whole evaluation platform,
 * the entry point a downstream user of this library reaches for first.
 *
 *   gds_sim --algo pr --dataset LJ --system gds
 *   gds_sim --algo sssp --graph edges.txt --system graphicionado
 *   gds_sim --algo bfs --rmat 18 --system all --stats
 *
 * Options: the run-spec fields of harness::specFields(), shared with
 * gds_cli and the daemon (README "One run from the command line";
 * --progress-interval is daemon-only):
 *   --algo bfs|sssp|cc|sswp|pr     algorithm (required)
 *   --system gds|graphicionado|gunrock|all   (default gds)
 *   --dataset NAME                 a Table 4 dataset (FR PK LJ HO IN OR,
 *                                  RM22..RM26), scaled by GDS_SCALE
 *   --source VID  --iters N  --cycle-budget N  --wall-budget SEC
 *   --pes N  --ues N  --no-wb  --no-ep  --no-ao  --no-us
 * and the driver's own:
 *   --graph FILE                   whitespace edge-list file
 *   --rmat SCALE                   RMAT graph with 2^SCALE vertices
 *   --stats                        dump the full statistics tree
 *   --trace FILE                   write a Perfetto-loadable event trace
 *   --sample-interval N            sample stats every N cycles
 *   --samples FILE                 sample CSV path (default
 *                                  gds_samples.csv; per-system prefix
 *                                  with --system all)
 *   --checkpoint-dir DIR           write mid-run checkpoints into DIR
 *   --checkpoint-interval N        checkpoint every N cycles (default:
 *                                  only on SIGINT/SIGTERM)
 *   --resume                       resume from DIR's latest checkpoint
 *   --kill-at-cycle N              raise SIGKILL at cycle N (crash tests)
 *
 * SIGINT/SIGTERM request a graceful stop: the run halts at the next
 * watchdog boundary, writes a final checkpoint (when --checkpoint-dir is
 * set) and still flushes samples and the trace, so an interrupted run can
 * be resumed with --resume and loses nothing.
 *
 * Every value flag also accepts the --flag=value spelling.
 */

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "common/parse.hh"
#include "graph/generators.hh"
#include "graph/loader.hh"
#include "graph/slicer.hh"
#include "harness/experiment.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

using namespace gds;

namespace
{

struct Options
{
    /** What to simulate; its system is ignored under --system all. */
    harness::RunSpec spec;
    bool allSystems = false;
    std::string graphFile;
    std::optional<unsigned> rmatScale;
    bool dumpStats = false;
    std::string traceFile;
    Cycle sampleInterval = 0;
    std::string sampleFile = "gds_samples.csv";
    std::string checkpointDir;
    Cycle checkpointInterval = 0;
    bool resume = false;
    Cycle killAtCycle = 0;
};

/** Async-signal-safe: requestStop() is one relaxed atomic store. */
void
handleStopSignal(int)
{
    sim::requestStop();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --algo bfs|sssp|cc|sswp|pr "
                 "[--system gds|graphicionado|gunrock|all]\n"
                 "       (--dataset NAME | --graph FILE | --rmat SCALE)\n"
                 "       [--source VID] [--iters N] [--cycle-budget N] "
                 "[--wall-budget SEC]\n"
                 "       [--ues N] [--pes N] [--no-wb] [--no-ep] [--no-ao] "
                 "[--no-us] [--stats]\n"
                 "       [--trace FILE] [--sample-interval N] "
                 "[--samples FILE]\n"
                 "       [--checkpoint-dir DIR] [--checkpoint-interval N] "
                 "[--resume]\n"
                 "       [--kill-at-cycle N]\n",
                 argv0);
    std::exit(1);
}

/** The parsed value, or the failure as a typed SimError (ConfigError). */
template <typename T>
T
valueOrThrow(const Result<T> &r)
{
    if (!r.ok())
        throwStatus(r.status());
    return r.value();
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    harness::SpecValues values;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Both "--flag value" and "--flag=value" are accepted.
        std::optional<std::string> inline_value;
        if (arg.rfind("--", 0) == 0) {
            const std::size_t eq = arg.find('=');
            if (eq != std::string::npos) {
                inline_value = arg.substr(eq + 1);
                arg.resize(eq);
            }
        }
        auto need_value = [&]() -> std::string {
            if (inline_value)
                return *inline_value;
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        auto no_value = [&]() {
            if (inline_value)
                usage(argv[0]);
        };
        // Numeric flags go through the checked parser: "--rmat=abc",
        // "--source=-1" or an overflowing value is a ConfigError that
        // main() turns into a message + usage, never an uncaught
        // std::invalid_argument crash (which bare std::stoul threw).
        auto need_u64 = [&](std::uint64_t min_v, std::uint64_t max_v) {
            return common::requireU64(arg, need_value(), min_v, max_v);
        };
        // Run-spec fields come from the table shared with the daemon.
        if (const harness::SpecField *f = harness::specFieldByFlag(arg);
            f && !f->daemonOnly) {
            std::string text;
            if (f->kind == harness::SpecField::Kind::Switch)
                no_value();
            else
                text = need_value();
            if (arg == "--system" && text == "all")
                opts.allSystems = true;
            else
                values[f] = text;
        } else if (arg == "--graph")
            opts.graphFile = need_value();
        else if (arg == "--rmat")
            opts.rmatScale = static_cast<unsigned>(need_u64(1, 30));
        else if (arg == "--stats") {
            no_value();
            opts.dumpStats = true;
        } else if (arg == "--trace")
            opts.traceFile = need_value();
        else if (arg == "--sample-interval")
            opts.sampleInterval = need_u64(
                1, std::numeric_limits<Cycle>::max());
        else if (arg == "--samples")
            opts.sampleFile = need_value();
        else if (arg == "--checkpoint-dir")
            opts.checkpointDir = need_value();
        else if (arg == "--checkpoint-interval")
            opts.checkpointInterval = need_u64(
                1, std::numeric_limits<Cycle>::max());
        else if (arg == "--resume") {
            no_value();
            opts.resume = true;
        } else if (arg == "--kill-at-cycle")
            opts.killAtCycle = need_u64(
                1, std::numeric_limits<Cycle>::max());
        else
            usage(argv[0]);
    }
    const int graph_sources = (opts.graphFile.empty() ? 0 : 1) +
                              (opts.rmatScale ? 1 : 0);
    opts.spec = valueOrThrow(harness::parseSpec(values, /*cli=*/true,
                                                /*need_dataset=*/false));
    if (graph_sources + (opts.spec.dataset.empty() ? 0 : 1) != 1)
        usage(argv[0]);
    if (opts.checkpointDir.empty() &&
        (opts.resume || opts.checkpointInterval != 0))
        fatal("--resume and --checkpoint-interval need --checkpoint-dir");
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    try {
        opts = parseArgs(argc, argv);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        usage(argv[0]);
    }

    // Graceful stop: the handler only sets an atomic flag; the run loop
    // notices it at the next watchdog boundary, checkpoints and returns,
    // and main still flushes samples and the trace below.
    sim::clearStopRequest();
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);

    const harness::RunSpec &spec = opts.spec;
    const bool weighted =
        algo::makeAlgorithm(spec.algorithm)->usesWeights();

    // --- Obtain the graph. ---
    graph::Csr g;
    if (!spec.dataset.empty()) {
        g = harness::loadDataset(spec.dataset, weighted);
    } else if (!opts.graphFile.empty()) {
        g = graph::loadEdgeList(opts.graphFile);
        if (weighted && !g.hasWeights())
            g = g.withRandomWeights(1);
    } else {
        g = graph::rmat(*opts.rmatScale, 16, 42, {}, weighted);
    }
    std::printf("graph: %u vertices, %llu edges\n", g.numVertices(),
                static_cast<unsigned long long>(g.numEdges()));
    std::printf("%s from vertex %u, iteration cap %u\n\n",
                algo::algorithmName(spec.algorithm).c_str(),
                spec.sourceIn(g), spec.iterationLimit());

    // Telemetry: one tracer serves every simulated system (tracks are
    // per-component, so systems land on distinct tracks); samplers are
    // per run because their probes reference the accelerator instance.
    const bool tracing = !opts.traceFile.empty();
    obs::Tracer tracer;
    std::optional<obs::ScopedActiveTracer> trace_scope;
    if (tracing)
        trace_scope.emplace(&tracer);
    Cycle last_traced_cycle = 0;

    for (const harness::SystemId system :
         {harness::SystemId::GraphDynS, harness::SystemId::Graphicionado,
          harness::SystemId::Gunrock}) {
        if (!opts.allSystems && system != spec.system)
            continue;
        harness::RunSpec run_spec = spec;
        run_spec.system = system;
        const char *tag = harness::systemTag(system);

        harness::RunHooks hooks;
        obs::Sampler sampler;
        if (opts.sampleInterval != 0 &&
            system != harness::SystemId::Gunrock) {
            sampler.setInterval(opts.sampleInterval);
            hooks.sampler = &sampler;
        }
        // Counter tracks ride the sample interval; default to 10k cycles
        // when tracing without sampling.
        if (tracing)
            hooks.traceCounterInterval =
                opts.sampleInterval != 0 ? opts.sampleInterval : 10'000;
        // Per-system checkpoint basename so --system all runs don't
        // collide; an empty dir leaves checkpointing off.
        core::CheckpointOptions ckpt;
        ckpt.dir = opts.checkpointDir;
        ckpt.basename = tag;
        ckpt.interval = opts.checkpointInterval;
        ckpt.resume = opts.resume;
        hooks.checkpoint = &ckpt;
        hooks.killAtCycle = opts.killAtCycle;
        Cycle cycles = 0;
        std::ostringstream stats_text;
        hooks.onFinish = [&](const core::RunResult &result,
                             const stats::Group &group) {
            cycles = result.cycles;
            if (opts.dumpStats)
                group.dump(stats_text);
        };

        const harness::RunRecord r = harness::run(run_spec, g, hooks);
        last_traced_cycle = std::max(last_traced_cycle, cycles);
        std::printf("%-14s time=%.4f ms  throughput=%.1f GTEPS  "
                    "traffic=%.1f MB  bw=%.0f%%  energy=%.2f mJ\n",
                    r.system.c_str(), r.seconds * 1e3, r.gteps,
                    r.memoryBytes / 1e6, r.bandwidthUtilization * 100.0,
                    r.energyJoules * 1e3);
        if (system == harness::SystemId::GraphDynS) {
            std::printf(
                "  iterations=%u slices=%u applies-skipped=%llu "
                "atomic-stalls=%llu\n",
                r.iterations,
                graph::numSlices(g.numVertices(),
                                 run_spec.gdsConfig().sliceCapacity()),
                static_cast<unsigned long long>(r.updatesSkipped),
                static_cast<unsigned long long>(r.atomicStalls));
        }
        if (r.status == errorCodeName(ErrorCode::Stopped)) {
            std::printf("  stopped by signal at cycle %llu%s\n",
                        static_cast<unsigned long long>(cycles),
                        opts.checkpointDir.empty()
                            ? ""
                            : "; checkpoint written (rerun with --resume)");
        }
        if (hooks.sampler) {
            const std::string path =
                opts.allSystems ? std::string(tag) + "." + opts.sampleFile
                                : opts.sampleFile;
            if (sampler.writeCsvFile(path)) {
                std::printf("  samples: %s (%zu rows, every %llu cycles)\n",
                            path.c_str(), sampler.sampleCount(),
                            static_cast<unsigned long long>(
                                opts.sampleInterval));
            }
        }
        std::cout << stats_text.str();
    }
    if (tracing) {
        // An aborted run (watchdog, cycle budget) can leave phase spans
        // open; close them so the trace stays well-nested.
        tracer.endAllOpen(last_traced_cycle);
        if (tracer.writeFile(opts.traceFile)) {
            std::printf("trace: %s (%zu events) — load in "
                        "https://ui.perfetto.dev\n",
                        opts.traceFile.c_str(), tracer.eventCount());
        }
    }
    return 0;
}
