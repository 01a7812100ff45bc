/**
 * @file
 * End-to-end checkpoint/restore tests: resume exactness across the
 * accelerator x telemetry x fault-injection x fast-forward matrix,
 * SIGKILL crash injection at arbitrary cycles (including mid-checkpoint-
 * write tears), typed rejection of corrupt checkpoint files, fallback to
 * the previous good checkpoint, and the graceful-stop final snapshot.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"
#include "expect_error.hh"

namespace gds
{
namespace
{

/** One point of the resume-exactness matrix. */
struct Scenario
{
    bool graphicionado = false;
    bool telemetry = false;
    bool faults = false;
    bool fastForward = true;
    /** GraphDynS only: off selects the stalling reduce pipeline. */
    bool zeroStallAtomics = true;

    std::string
    tag() const
    {
        std::string t = graphicionado ? "gio" : "gds";
        t += telemetry ? "_tel" : "_notel";
        t += faults ? "_flt" : "_noflt";
        t += fastForward ? "_ff" : "_noff";
        if (!zeroStallAtomics)
            t += "_stall";
        return t;
    }
};

/** Everything a run produces that resume exactness is judged on. */
struct RunArtifacts
{
    core::RunResult result;
    std::string stats;   ///< full statsGroup() dump
    std::string samples; ///< sampler CSV (telemetry scenarios)
    std::string trace;   ///< tracer JSON (telemetry scenarios)
};

constexpr Cycle kSampleInterval = 512;
constexpr Cycle kCounterInterval = 2048;

core::RunOptions
baseOptions(const Scenario &sc, const graph::Csr &g)
{
    core::RunOptions o;
    o.source = algo::defaultSource(g);
    o.fastForward = sc.fastForward;
    if (sc.faults) {
        o.faults.seed = 9;
        o.faults.delayResponseProb = 0.02;
        o.faults.delayCycles = 64;
    }
    return o;
}

/** Run one scenario to completion (or the given budget) and collect the
 *  exactness artifacts. */
RunArtifacts
runScenario(const Scenario &sc, const graph::Csr &g, algo::AlgorithmId id,
            const core::CheckpointOptions &ckpt, Cycle cycle_budget = 0)
{
    auto a = algo::makeAlgorithm(id);
    core::RunOptions o = baseOptions(sc, g);
    o.checkpoint = ckpt;
    if (cycle_budget != 0)
        o.cycleBudget = cycle_budget;

    obs::Sampler sampler;
    obs::Tracer tracer;
    std::optional<obs::ScopedActiveTracer> trace_scope;
    if (sc.telemetry) {
        sampler.setInterval(kSampleInterval);
        o.sampler = &sampler;
        trace_scope.emplace(&tracer);
        o.traceCounterInterval = kCounterInterval;
    }

    RunArtifacts art;
    std::ostringstream stats;
    if (sc.graphicionado) {
        baseline::GraphicionadoConfig cfg;
        baseline::GraphicionadoAccel accel(cfg, g, *a);
        art.result = accel.run(o);
        accel.statsGroup().dump(stats);
    } else {
        core::GdsConfig cfg;
        cfg.zeroStallAtomics = sc.zeroStallAtomics;
        core::GdsAccel accel(cfg, g, *a);
        art.result = accel.run(o);
        accel.statsGroup().dump(stats);
    }
    art.stats = stats.str();
    if (sc.telemetry) {
        std::ostringstream csv;
        sampler.writeCsv(csv);
        art.samples = csv.str();
        std::ostringstream tr;
        tracer.write(tr);
        art.trace = tr.str();
    }
    return art;
}

void
expectExactMatch(const RunArtifacts &resumed, const RunArtifacts &ref)
{
    EXPECT_TRUE(resumed.result.completed());
    EXPECT_EQ(resumed.result.properties, ref.result.properties);
    EXPECT_EQ(resumed.result.cycles, ref.result.cycles);
    EXPECT_EQ(resumed.result.iterations, ref.result.iterations);
    EXPECT_EQ(resumed.result.edgesProcessed, ref.result.edgesProcessed);
    EXPECT_EQ(resumed.result.memoryBytes, ref.result.memoryBytes);
    EXPECT_EQ(resumed.stats, ref.stats);
    EXPECT_EQ(resumed.samples, ref.samples);
    EXPECT_EQ(resumed.trace, ref.trace);
}

/** Tests run in a scratch directory (checkpoints are CWD-relative). */
class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = std::filesystem::current_path();
        scratch = std::filesystem::temp_directory_path() /
                  ("gds_ckpt_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(scratch);
        std::filesystem::current_path(scratch);
    }

    void
    TearDown() override
    {
        sim::clearStopRequest();
        std::filesystem::current_path(original);
        std::filesystem::remove_all(scratch);
    }

    std::filesystem::path original;
    std::filesystem::path scratch;
};

/** Small deterministic test graph (weights feed SSSP-style algorithms). */
graph::Csr
testGraph()
{
    return graph::rmat(8, 8, 42, {}, true);
}

// --- Resume exactness across the full matrix ------------------------------

TEST_F(CheckpointTest, ResumeIsBitExactAcrossTheMatrix)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Sssp;

    for (const bool gio : {false, true}) {
        for (const bool telemetry : {false, true}) {
            for (const bool faults : {false, true}) {
                for (const bool ff : {false, true}) {
                    const Scenario sc{gio, telemetry, faults, ff};
                    SCOPED_TRACE(sc.tag());
                    const RunArtifacts ref = runScenario(sc, g, id, {});
                    ASSERT_TRUE(ref.result.completed());
                    ASSERT_GT(ref.result.cycles, 10u);

                    // Interrupt at two different depths of the run.
                    for (const double frac : {0.3, 0.7}) {
                        SCOPED_TRACE(frac);
                        const Cycle budget = std::max<Cycle>(
                            2, static_cast<Cycle>(
                                   frac *
                                   static_cast<double>(ref.result.cycles)));
                        core::CheckpointOptions ck;
                        ck.dir = "ckpt";
                        ck.basename = sc.tag();
                        ck.interval = std::max<Cycle>(1, budget / 3);
                        const RunArtifacts cut =
                            runScenario(sc, g, id, ck, budget);
                        ASSERT_FALSE(cut.result.completed());

                        ck.resume = true;
                        ck.interval = 0;
                        const RunArtifacts resumed =
                            runScenario(sc, g, id, ck);
                        expectExactMatch(resumed, ref);

                        // A completed run leaves nothing to resume.
                        const sim::CheckpointStore store("ckpt", sc.tag());
                        EXPECT_FALSE(std::filesystem::exists(
                            store.currentPath()));
                        EXPECT_FALSE(std::filesystem::exists(
                            store.previousPath()));
                    }
                }
            }
        }
    }
}

/** The number after @p key in @p text (e.g. "ue=" in a debugState()). */
std::uint64_t
numberAfter(const std::string &text, const std::string &key)
{
    const std::size_t at = text.find(key);
    EXPECT_NE(at, std::string::npos) << key << " missing in " << text;
    return at == std::string::npos
               ? 0
               : std::stoull(text.substr(at + key.size()));
}

TEST_F(CheckpointTest, MidScatterResumeIsBitExact)
{
    // A GraphDynS checkpoint taken inside a scatter phase, with updates
    // queued at the UEs and coalesced edge fetches in flight: the resume
    // rebuilds the UE ready set from the restored inboxes and answers the
    // in-flight batches from the restored batch arrays. The stalling
    // reduce pipeline also restores its RAW-hazard registers.
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Pr;
    for (const bool zero_stall : {true, false}) {
        Scenario sc;
        sc.zeroStallAtomics = zero_stall;
        SCOPED_TRACE(sc.tag());
        const RunArtifacts ref = runScenario(sc, g, id, {});
        ASSERT_TRUE(ref.result.completed());

        // Scan for a checkpoint cycle that lands mid-scatter. The
        // checkpoint is restored into a fresh accelerator to read the
        // state it holds.
        core::CheckpointOptions ck;
        ck.dir = "ckpt";
        ck.basename = sc.tag();
        bool mid_scatter = false;
        for (Cycle at = 64; at < ref.result.cycles && !mid_scatter;
             at += 61) {
            ck.interval = at;
            ASSERT_FALSE(
                runScenario(sc, g, id, ck, at + 1).result.completed());
            const sim::CheckpointStore store("ckpt", sc.tag());
            const sim::CheckpointStore::Loaded image =
                sim::CheckpointStore::readFile(store.currentPath());
            ASSERT_EQ(image.meta.cycle, at);
            auto a = algo::makeAlgorithm(id);
            core::GdsConfig cfg;
            cfg.zeroStallAtomics = zero_stall;
            core::GdsAccel probe(cfg, g, *a);
            sim::Deserializer d(image.payload);
            probe.restoreState(d);
            const std::string state = probe.debugState();
            mid_scatter = state.find("phase=scatter") != std::string::npos &&
                          numberAfter(state, " ue=") > 0 &&
                          numberAfter(state, " e=") > 0 &&
                          numberAfter(state, "edgeBatches=") > 0;
        }
        ASSERT_TRUE(mid_scatter) << "no checkpoint landed mid-scatter";

        ck.resume = true;
        ck.interval = 0;
        expectExactMatch(runScenario(sc, g, id, ck), ref);
    }
}

// --- Identity and corruption handling -------------------------------------

TEST_F(CheckpointTest, MismatchedIdentityStartsCleanAndStillCompletes)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    for (const bool gio : {false, true}) {
        Scenario sc;
        sc.graphicionado = gio;
        SCOPED_TRACE(sc.tag());
        const RunArtifacts ref = runScenario(sc, g, id, {});
        ASSERT_TRUE(ref.result.completed());

        core::CheckpointOptions ck;
        ck.dir = "ckpt";
        ck.basename = "ident";
        ck.identity = "config-A";
        ck.interval = std::max<Cycle>(1, ref.result.cycles / 4);
        const RunArtifacts cut =
            runScenario(sc, g, id, ck, ref.result.cycles / 2);
        ASSERT_FALSE(cut.result.completed());

        // A different identity salt refuses the checkpoint (with a
        // warning) and restarts from cycle zero — never resumes foreign
        // state.
        ck.identity = "config-B";
        ck.resume = true;
        ck.interval = 0;
        const RunArtifacts resumed = runScenario(sc, g, id, ck);
        expectExactMatch(resumed, ref);
    }
}

TEST_F(CheckpointTest, OtherAcceleratorsCheckpointStartsClean)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    Scenario gds;
    Scenario gio;
    gio.graphicionado = true;
    const RunArtifacts gds_ref = runScenario(gds, g, id, {});
    const RunArtifacts gio_ref = runScenario(gio, g, id, {});
    ASSERT_TRUE(gds_ref.result.completed());

    // GraphDynS leaves a checkpoint under the shared base name...
    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "shared";
    ck.interval = std::max<Cycle>(1, gds_ref.result.cycles / 4);
    ASSERT_FALSE(runScenario(gds, g, id, ck, gds_ref.result.cycles / 2)
                     .result.completed());
    ASSERT_TRUE(std::filesystem::exists(
        sim::CheckpointStore("ckpt", "shared").currentPath()));

    // ...which Graphicionado refuses by identity and runs from scratch.
    ck.resume = true;
    ck.interval = 0;
    expectExactMatch(runScenario(gio, g, id, ck), gio_ref);
}

TEST_F(CheckpointTest, ResumeRefusesMismatchedFaultSamplerOrTracerState)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    for (const bool gio : {false, true}) {
        Scenario sc;
        sc.graphicionado = gio;
        SCOPED_TRACE(sc.tag());
        const RunArtifacts ref = runScenario(sc, g, id, {});
        ASSERT_TRUE(ref.result.completed());

        // A checkpoint with no fault injector, sampler or tracer state.
        core::CheckpointOptions ck;
        ck.dir = "ckpt";
        ck.basename = sc.tag();
        ck.interval = std::max<Cycle>(1, ref.result.cycles / 4);
        ASSERT_FALSE(runScenario(sc, g, id, ck, ref.result.cycles / 2)
                         .result.completed());
        ck.resume = true;
        ck.interval = 0;

        // A resume that attaches any one of them is refused.
        for (const std::string extra : {"fault plan", "sampler", "tracer"}) {
            SCOPED_TRACE(extra);
            Scenario with_faults = sc;
            with_faults.faults = extra == "fault plan";
            core::RunOptions o = baseOptions(with_faults, g);
            o.checkpoint = ck;
            obs::Sampler sampler;
            if (extra == "sampler") {
                sampler.setInterval(kSampleInterval);
                o.sampler = &sampler;
            }
            obs::Tracer tracer;
            std::optional<obs::ScopedActiveTracer> trace_scope;
            if (extra == "tracer")
                trace_scope.emplace(&tracer);

            auto a = algo::makeAlgorithm(id);
            const auto expect_refused = [&](auto &accel) {
                EXPECT_TYPED_ERROR(accel.run(o), CheckpointError, extra);
                // The injector died with the run: the HBM must not keep
                // pointing at it.
                EXPECT_EQ(accel.hbmDevice().faultInjector(), nullptr);
            };
            if (gio) {
                baseline::GraphicionadoAccel accel({}, g, *a);
                expect_refused(accel);
            } else {
                core::GdsAccel accel({}, g, *a);
                expect_refused(accel);
            }
        }

        // A refused resume leaves the checkpoint for a matching run.
        expectExactMatch(runScenario(sc, g, id, ck), ref);
    }
}

TEST_F(CheckpointTest, CorruptCheckpointFilesAreRejectedWithTypedErrors)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});

    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "corrupt";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 4);
    runScenario(sc, g, id, ck, ref.result.cycles / 2);
    const sim::CheckpointStore store("ckpt", "corrupt");
    ASSERT_TRUE(std::filesystem::exists(store.currentPath()));

    // The pristine file parses.
    EXPECT_NO_THROW(sim::CheckpointStore::readFile(store.currentPath()));

    auto corrupted_copy = [&](const char *name,
                              const std::function<void(std::string)> &mutate) {
        const std::string path = std::string("ckpt/") + name;
        std::filesystem::copy_file(store.currentPath(), path);
        mutate(path);
        return path;
    };

    // Truncated: the trailing checksum (at least) is gone.
    const auto size = std::filesystem::file_size(store.currentPath());
    const std::string truncated =
        corrupted_copy("truncated.ckpt", [&](const std::string &p) {
            std::filesystem::resize_file(p, size / 2);
        });
    EXPECT_THROW(sim::CheckpointStore::readFile(truncated), CheckpointError);

    // One flipped payload byte: the checksum no longer matches.
    const std::string flipped =
        corrupted_copy("flipped.ckpt", [&](const std::string &p) {
            std::fstream f(p, std::ios::in | std::ios::out |
                                  std::ios::binary);
            f.seekp(static_cast<std::streamoff>(size / 2));
            f.put('\x5a');
        });
    EXPECT_THROW(sim::CheckpointStore::readFile(flipped), CheckpointError);

    // A wrong magic is not a checkpoint at all.
    const std::string wrong_magic =
        corrupted_copy("magic.ckpt", [&](const std::string &p) {
            std::fstream f(p, std::ios::in | std::ios::out |
                                  std::ios::binary);
            f.seekp(0);
            f.write("NOTACKPT", 8);
        });
    EXPECT_THROW(sim::CheckpointStore::readFile(wrong_magic),
                 CheckpointError);

    // An empty file is rejected, not misparsed.
    { std::ofstream empty("ckpt/empty.ckpt"); }
    EXPECT_THROW(sim::CheckpointStore::readFile("ckpt/empty.ckpt"),
                 CheckpointError);
}

TEST_F(CheckpointTest, PreviousStateVersionIsRefusedWithTypedError)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});

    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "version";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 4);
    runScenario(sc, g, id, ck, ref.result.cycles / 2);
    const sim::CheckpointStore store("ckpt", "version");
    const sim::CheckpointStore::Loaded current =
        sim::CheckpointStore::readFile(store.currentPath());
    const sim::CheckpointMeta &meta = current.meta;
    ASSERT_GT(meta.stateVersion, 1u);
    EXPECT_NO_THROW(meta.expectCompatible(meta.stateVersion, meta.identity));

    // The same payload stamped with the previous layout version.
    sim::CheckpointMeta old = meta;
    old.stateVersion = meta.stateVersion - 1;
    EXPECT_THROW(old.expectCompatible(meta.stateVersion, meta.identity),
                 CheckpointError);
    sim::CheckpointMeta foreign = meta;
    foreign.identity += "|other";
    EXPECT_THROW(foreign.expectCompatible(meta.stateVersion, meta.identity),
                 CheckpointError);

    // End to end: a resume finds only the old-version file, refuses it
    // and runs from cycle zero to the exact uninterrupted result.
    std::filesystem::remove(store.previousPath());
    sim::Serializer payload;
    for (const std::uint8_t b : current.payload)
        payload.writeU8(b);
    std::filesystem::remove(store.currentPath());
    sim::CheckpointStore("ckpt", "version").write(old, payload);
    ASSERT_EQ(sim::CheckpointStore::readFile(store.currentPath())
                  .meta.stateVersion,
              old.stateVersion);
    ck.resume = true;
    ck.interval = 0;
    expectExactMatch(runScenario(sc, g, id, ck), ref);
}

/** Read a whole file as bytes. */
std::vector<char>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Refill the allocator's free lists with a non-zero pattern, so stale
 *  bytes (struct padding) in the next run cannot match by accident. */
void
poisonHeap()
{
    std::vector<std::vector<std::uint8_t>> junk;
    for (std::size_t n = 8; n < 20000; ++n)
        junk.emplace_back(8 + n % 120, static_cast<std::uint8_t>(0xa5 ^ n));
}

TEST_F(CheckpointTest, IdenticalRunsWriteByteIdenticalCheckpoints)
{
    // PR activates every vertex, so the active-record arrays (the
    // widest padded structures) are in every checkpoint.
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Pr;
    for (const bool gio : {false, true}) {
        Scenario sc;
        sc.graphicionado = gio;
        SCOPED_TRACE(sc.tag());
        std::vector<std::vector<char>> images;
        for (const char *dir : {"run_a", "run_b"}) {
            poisonHeap();
            core::CheckpointOptions ck;
            ck.dir = dir;
            ck.basename = "same";
            ck.interval = 200;
            ASSERT_FALSE(runScenario(sc, g, id, ck, 1000).result.completed());
            images.push_back(
                fileBytes(sim::CheckpointStore(dir, "same").currentPath()));
        }
        ASSERT_FALSE(images[0].empty());
        EXPECT_TRUE(images[0] == images[1])
            << "two identical runs wrote different checkpoint bytes";
    }
}

TEST_F(CheckpointTest, TornCurrentFallsBackToPreviousAndResumesExactly)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    // Enough checkpoints that both current and .prev exist.
    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "torn";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 8);
    runScenario(sc, g, id, ck, (ref.result.cycles * 3) / 4);
    const sim::CheckpointStore store("ckpt", "torn");
    ASSERT_TRUE(std::filesystem::exists(store.currentPath()));
    ASSERT_TRUE(std::filesystem::exists(store.previousPath()));

    // Tear the current file the way an interrupted non-durable writer
    // would; the loader must report the fallback, not an error.
    const auto size = std::filesystem::file_size(store.currentPath());
    std::filesystem::resize_file(store.currentPath(), size / 2);
    std::string reason;
    const auto loaded = store.loadLatest(&reason);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->usedFallback);
    EXPECT_FALSE(reason.empty());

    ck.resume = true;
    ck.interval = 0;
    const RunArtifacts resumed = runScenario(sc, g, id, ck);
    expectExactMatch(resumed, ref);
}

// --- Crash injection: SIGKILL mid-run and mid-checkpoint-write ------------

/** Fork; the child runs the scenario and must die by SIGKILL. */
void
runChildExpectingSigkill(const std::function<void()> &child_body)
{
    ::fflush(nullptr);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        child_body();
        // Reaching here means the kill never fired; signal failure
        // without running atexit/gtest teardown in the child.
        ::_exit(7);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status))
        << "child exited with status " << status << " instead of a signal";
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
}

TEST_F(CheckpointTest, SigkillAtArbitraryCyclesThenResumeIsExact)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Sssp;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    for (const double frac : {0.25, 0.55, 0.85}) {
        SCOPED_TRACE(frac);
        core::CheckpointOptions ck;
        ck.dir = "ckpt";
        ck.basename = "kill" + std::to_string(static_cast<int>(frac * 100));
        ck.interval = std::max<Cycle>(1, ref.result.cycles / 10);
        const Cycle kill_at = std::max<Cycle>(
            1,
            static_cast<Cycle>(frac *
                               static_cast<double>(ref.result.cycles)));
        runChildExpectingSigkill([&] {
            auto a = algo::makeAlgorithm(id);
            core::RunOptions o = baseOptions(sc, g);
            o.checkpoint = ck;
            o.killAtCycle = kill_at;
            core::GdsConfig cfg;
            core::GdsAccel accel(cfg, g, *a);
            accel.run(o);
        });

        ck.resume = true;
        ck.interval = 0;
        const RunArtifacts resumed = runScenario(sc, g, id, ck);
        expectExactMatch(resumed, ref);
    }
}

TEST_F(CheckpointTest, SigkillMidCheckpointWriteUsesPreviousGoodFile)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "midwrite";
    ck.interval = std::max<Cycle>(1, ref.result.cycles / 6);
    runChildExpectingSigkill([&] {
        // The third checkpoint write truncates the freshly published
        // file to half its size and SIGKILLs the process.
        ::setenv("GDS_CKPT_KILL_MID_WRITE", "3", 1);
        auto a = algo::makeAlgorithm(id);
        core::RunOptions o = baseOptions(sc, g);
        o.checkpoint = ck;
        core::GdsConfig cfg;
        core::GdsAccel accel(cfg, g, *a);
        accel.run(o);
    });

    // The tear is detected and the previous good checkpoint supplies the
    // resume state.
    const sim::CheckpointStore store("ckpt", "midwrite");
    std::string reason;
    const auto loaded = store.loadLatest(&reason);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->usedFallback);
    EXPECT_FALSE(reason.empty());

    ck.resume = true;
    ck.interval = 0;
    const RunArtifacts resumed = runScenario(sc, g, id, ck);
    expectExactMatch(resumed, ref);
}

// --- Graceful stop --------------------------------------------------------

TEST_F(CheckpointTest, GracefulStopWritesFinalCheckpointAndResumes)
{
    const graph::Csr g = testGraph();
    const algo::AlgorithmId id = algo::AlgorithmId::Bfs;
    const Scenario sc;
    const RunArtifacts ref = runScenario(sc, g, id, {});
    ASSERT_TRUE(ref.result.completed());

    // A pre-raised stop flag halts the run at the first watchdog boundary
    // (the same path a SIGINT/SIGTERM handler takes) and writes a final
    // checkpoint even with no periodic interval configured.
    core::CheckpointOptions ck;
    ck.dir = "ckpt";
    ck.basename = "stop";
    sim::requestStop();
    const RunArtifacts stopped = runScenario(sc, g, id, ck);
    sim::clearStopRequest();
    ASSERT_FALSE(stopped.result.completed());
    EXPECT_EQ(stopped.result.report.outcome, sim::RunOutcome::Stopped);
    const sim::CheckpointStore store("ckpt", "stop");
    EXPECT_TRUE(std::filesystem::exists(store.currentPath()));

    ck.resume = true;
    const RunArtifacts resumed = runScenario(sc, g, id, ck);
    expectExactMatch(resumed, ref);
}

} // namespace
} // namespace gds
