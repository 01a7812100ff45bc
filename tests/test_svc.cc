/**
 * @file
 * Tests for the simulation service (src/svc): protocol parsing, the
 * in-process service lifecycle (submit/poll/result, cache hits,
 * admission rejection, drain-with-checkpoint, resume), the socket
 * server end-to-end, and regressions for the input-handling bugfix
 * sweep that shipped with the daemon:
 *  - checked CLI/request numeric parsing (common/parse.hh) instead of
 *    bare std::stoul crashes and strtoul sign-wraparound;
 *  - env knobs rejecting negative/garbage values with the documented
 *    default instead of wrapping ("GDS_CELL_RETRIES=-1" -> ~4e9);
 *  - GDS_PERFECT_MEM resolved once per run instead of once per process
 *    half of the time (function-local static in the scatter path).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/jsonio.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/parse.hh"
#include "common/socket.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"
#include "harness/experiment.hh"
#include "sim/simulator.hh"
#include "svc/server.hh"
#include "svc/service.hh"
#include "expect_error.hh"

using namespace gds;

namespace
{

/**
 * Scratch-directory fixture: the service's result cache, dataset cache
 * and checkpoints are all CWD-relative. GDS_SCALE is pinned high so the
 * Table 4 datasets the jobs name are tiny.
 */
class SvcTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = std::filesystem::current_path();
        scratch = std::filesystem::temp_directory_path() /
                  ("gds_svc_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(scratch);
        std::filesystem::current_path(scratch);
        ::setenv("GDS_SCALE", "256", 1);
        sim::clearStopRequest();
    }

    void
    TearDown() override
    {
        ::unsetenv("GDS_SCALE");
        sim::clearStopRequest();
        std::filesystem::current_path(original);
        std::filesystem::remove_all(scratch);
    }

    std::filesystem::path original;
    std::filesystem::path scratch;
};

svc::JobSpec
bfsSpec(const std::string &dataset = "FR")
{
    svc::JobSpec spec;
    spec.system = harness::SystemId::GraphDynS;
    spec.algorithm = algo::AlgorithmId::Bfs;
    spec.dataset = dataset;
    return spec;
}

/**
 * Poll until the job leaves the queue. Bounded, but generously: these
 * jobs are tiny in real time, yet a full PR run under TSan can take
 * tens of seconds, and success returns at the first completed poll.
 */
svc::JobView
awaitJob(svc::SimService &service, const std::string &id)
{
    for (int i = 0; i < 2400; ++i) {
        auto view = service.poll(id);
        EXPECT_TRUE(view.ok()) << view.status().toString();
        if (view.value().state == svc::JobState::Done ||
            view.value().state == svc::JobState::Failed)
            return view.value();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ADD_FAILURE() << "job " << id << " never finished";
    return {};
}

// ---------------------------------------------------------------------
// Protocol parsing.
// ---------------------------------------------------------------------

TEST(SvcProtocol, ParsesFullSubmit)
{
    auto req = svc::parseRequest(
        R"({"op":"submit","system":"graphicionado","algorithm":"sssp",)"
        R"("dataset":"PK","source":7,"iterations":3,"cycle_budget":1000,)"
        R"("wall_budget_seconds":1.5})");
    ASSERT_TRUE(req.ok()) << req.status().toString();
    const svc::JobSpec &spec = req.value().spec;
    EXPECT_EQ(req.value().op, svc::RequestOp::Submit);
    EXPECT_EQ(spec.system, harness::SystemId::Graphicionado);
    EXPECT_EQ(spec.algorithm, algo::AlgorithmId::Sssp);
    EXPECT_EQ(spec.dataset, "PK");
    ASSERT_TRUE(spec.source.has_value());
    EXPECT_EQ(*spec.source, 7u);
    ASSERT_TRUE(spec.iterations.has_value());
    EXPECT_EQ(*spec.iterations, 3u);
    EXPECT_EQ(spec.cycleBudget, 1000u);
    EXPECT_DOUBLE_EQ(spec.wallBudgetSeconds, 1.5);
}

TEST(SvcProtocol, KeyExtendsOnlyForOverrides)
{
    svc::JobSpec plain = bfsSpec();
    svc::JobSpec custom = bfsSpec();
    custom.source = 5;
    custom.iterations = 2;
    EXPECT_NE(plain.key(), custom.key());
    // The plain spec's key is exactly the evaluation matrix's cell key,
    // so daemon jobs share (and warm) the same cache entries.
    EXPECT_EQ(plain.key(),
              harness::cellKey("gds", algo::AlgorithmId::Bfs, "FR"));
}

TEST(SvcProtocol, RejectsMalformedRequests)
{
    // Not JSON at all.
    EXPECT_EQ(svc::parseRequest("not json").status().code(),
              ErrorCode::CorruptInput);
    // Valid JSON, wrong shape / content: typed config errors.
    for (const char *line : {
             R"([1,2,3])",
             R"({"algorithm":"bfs","dataset":"FR"})",
             R"({"op":"frobnicate"})",
             R"({"op":"submit","dataset":"FR"})",
             R"({"op":"submit","algorithm":"nope","dataset":"FR"})",
             R"({"op":"submit","algorithm":"bfs","dataset":"NOPE"})",
             R"({"op":"submit","algorithm":"bfs","dataset":"FR","source":-1})",
             R"({"op":"submit","algorithm":"bfs","dataset":"FR","source":"1x"})",
             R"({"op":"submit","algorithm":"bfs","dataset":"FR",)"
             R"("iterations":0})",
             R"({"op":"submit","algorithm":"bfs","dataset":"FR",)"
             R"("source":99999999999999999999999})",
             R"({"op":"poll"})",
             R"({"op":"result","job":""})",
         }) {
        auto req = svc::parseRequest(line);
        EXPECT_FALSE(req.ok()) << "accepted: " << line;
        EXPECT_EQ(req.status().code(), ErrorCode::Config) << line;
    }
}

// ---------------------------------------------------------------------
// Service lifecycle.
// ---------------------------------------------------------------------

TEST_F(SvcTest, SubmitRunsJobAndServesRepeatFromCache)
{
    svc::ServiceConfig config;
    config.workers = 2;
    config.maxQueue = 4;
    svc::SimService service(config);

    auto first = service.submit(bfsSpec());
    ASSERT_TRUE(first.ok()) << first.status().toString();
    EXPECT_FALSE(first.value().cached);

    const svc::JobView done = awaitJob(service, first.value().id);
    EXPECT_EQ(done.state, svc::JobState::Done);
    EXPECT_EQ(done.record.status, "ok");
    EXPECT_GT(done.record.seconds, 0.0);
    EXPECT_GT(done.latencySeconds, 0.0);

    // result() mirrors poll() for finished jobs.
    auto fetched = service.result(first.value().id);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(fetched.value().record.configHash, done.record.configHash);

    // Identical resubmission: served at admission, no queue slot used.
    auto second = service.submit(bfsSpec());
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value().cached);
    EXPECT_EQ(second.value().state, svc::JobState::Done);
    EXPECT_EQ(second.value().record.seconds, done.record.seconds);

    const svc::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.admitted, 1u);
    EXPECT_EQ(stats.cacheHits, 1u);
    EXPECT_EQ(stats.cacheLookups, 2u);
    EXPECT_EQ(stats.completed, 1u);

    // The statsz line carries the hit rate and parses as JSON.
    const std::string line = service.statszLine();
    EXPECT_NE(line.find("\"cache_hit_rate\":0.5"), std::string::npos)
        << line;
    EXPECT_TRUE(common::parseJson(line).ok()) << line;
}

TEST_F(SvcTest, UnknownJobAndUnfinishedJobAreTypedErrors)
{
    svc::ServiceConfig config;
    config.workers = 1;
    svc::SimService service(config);
    EXPECT_EQ(service.poll("j999").status().code(), ErrorCode::Config);
    EXPECT_EQ(service.result("j999").status().code(), ErrorCode::Config);
}

TEST_F(SvcTest, AdmissionQueueBoundsAndDrainCheckpointsInFlightJobs)
{
    const std::string ckpt_dir = "svc_ckpt";
    {
        svc::ServiceConfig config;
        config.workers = 1;
        config.maxQueue = 1;
        config.checkpointDir = ckpt_dir;
        svc::SimService service(config);

        // A deliberately long job (PR runs its full iteration budget):
        // orders of magnitude slower than the drain that interrupts it,
        // yet short enough that the resumed run below completes under
        // TSan within awaitJob's bound.
        svc::JobSpec slow = bfsSpec();
        slow.algorithm = algo::AlgorithmId::Pr;
        slow.iterations = 300;
        auto admitted = service.submit(slow);
        ASSERT_TRUE(admitted.ok()) << admitted.status().toString();

        // The queue is full (1/1): a distinct job is rejected with the
        // typed resource error, not queued unboundedly.
        auto rejected = service.submit(bfsSpec());
        ASSERT_FALSE(rejected.ok());
        EXPECT_EQ(rejected.status().code(), ErrorCode::Resource);
        EXPECT_EQ(service.stats().rejected, 1u);

        // SIGTERM path: drain stops the in-flight run at its next check
        // boundary; the job is recorded as stopped, not lost.
        service.drain();
        auto stopped = service.poll(admitted.value().id);
        ASSERT_TRUE(stopped.ok());
        EXPECT_EQ(stopped.value().state, svc::JobState::Failed);
        EXPECT_EQ(stopped.value().record.status, "stopped");

        // ...and left a resumable checkpoint behind.
        bool found = false;
        for (const auto &entry :
             std::filesystem::directory_iterator(ckpt_dir))
            found |= entry.path().extension() == ".ckpt";
        EXPECT_TRUE(found) << "no checkpoint written under " << ckpt_dir;

        // A draining service refuses new work.
        auto late = service.submit(bfsSpec());
        ASSERT_FALSE(late.ok());
        EXPECT_EQ(late.status().code(), ErrorCode::Resource);
    }

    // A fresh service (fresh daemon) with the same checkpoint dir picks
    // the job up from the checkpoint and completes it.
    sim::clearStopRequest();
    svc::ServiceConfig config;
    config.workers = 1;
    config.maxQueue = 1;
    config.checkpointDir = ckpt_dir;
    svc::SimService service(config);
    svc::JobSpec slow = bfsSpec();
    slow.algorithm = algo::AlgorithmId::Pr;
    slow.iterations = 300;
    auto resumed = service.submit(slow);
    ASSERT_TRUE(resumed.ok()) << resumed.status().toString();
    const svc::JobView done = awaitJob(service, resumed.value().id);
    EXPECT_EQ(done.state, svc::JobState::Done);
    EXPECT_EQ(done.record.status, "ok");
    EXPECT_EQ(done.record.iterations, 300u);
}

// ---------------------------------------------------------------------
// Server: request dispatch and the socket end-to-end path.
// ---------------------------------------------------------------------

TEST_F(SvcTest, HandleLineSpeaksTheProtocol)
{
    svc::ServerConfig config;
    config.service.workers = 1;
    svc::Server server(config);

    const std::string bad = server.handleLine("{\"op\":\"nope\"}");
    EXPECT_NE(bad.find("\"ok\":false"), std::string::npos) << bad;
    EXPECT_NE(bad.find("\"error\":\"config\""), std::string::npos) << bad;

    const std::string submit = server.handleLine(
        R"({"op":"submit","algorithm":"bfs","dataset":"FR"})");
    EXPECT_NE(submit.find("\"ok\":true"), std::string::npos) << submit;
    EXPECT_NE(submit.find("\"job\":\"j1\""), std::string::npos) << submit;

    const std::string stats = server.handleLine("{\"op\":\"statsz\"}");
    EXPECT_TRUE(common::parseJson(stats).ok()) << stats;
    EXPECT_NE(stats.find("\"submitted\":1"), std::string::npos) << stats;

    const std::string bye = server.handleLine("{\"op\":\"shutdown\"}");
    EXPECT_NE(bye.find("draining"), std::string::npos) << bye;
    server.service().drain();
}

TEST_F(SvcTest, SocketRoundTripAndShutdown)
{
    svc::ServerConfig config;
    config.socketPath = (scratch / "svc_test.sock").string();
    config.service.workers = 1;
    svc::Server server(config);
    std::thread serve_thread([&] {
        const Status s = server.serve();
        EXPECT_TRUE(s.ok()) << s.toString();
    });

    // The listener may not be bound yet; retry the connect briefly.
    Result<common::LineChannel> chan =
        Status::failure(ErrorCode::Internal, "never connected");
    for (int i = 0; i < 100 && !chan.ok(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        chan = common::connectUnix(config.socketPath, 1000);
    }
    ASSERT_TRUE(chan.ok()) << chan.status().toString();

    ASSERT_TRUE(chan.value()
                    .writeLine(R"({"op":"submit","algorithm":"bfs",)"
                               R"("dataset":"FR"})")
                    .ok());
    std::string response;
    ASSERT_TRUE(chan.value().readLine(response, 30'000).ok());
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;

    // In-band shutdown: the daemon answers, then drains and exits.
    ASSERT_TRUE(chan.value().writeLine("{\"op\":\"shutdown\"}").ok());
    ASSERT_TRUE(chan.value().readLine(response, 30'000).ok());
    EXPECT_NE(response.find("draining"), std::string::npos) << response;
    chan.value().close();
    serve_thread.join();
    // The socket file is unlinked on a clean exit.
    EXPECT_FALSE(std::filesystem::exists(config.socketPath));
}

TEST_F(SvcTest, SecondListenerOnLiveSocketIsRefused)
{
    common::UnixListener first;
    const std::string path = (scratch / "dup.sock").string();
    ASSERT_TRUE(first.bind(path).ok());
    common::UnixListener second;
    const Status s = second.bind(path);
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), ErrorCode::Resource);
}

// ---------------------------------------------------------------------
// Bugfix regressions: checked numeric parsing everywhere.
// ---------------------------------------------------------------------

TEST(SvcParse, RequireU64RejectsGarbageWithTypedError)
{
    EXPECT_EQ(common::requireU64("--pes", "8"), 8u);
    // Bare std::stoul accepted "10x" (and crashed the old CLI on "abc"
    // with an uncaught std::invalid_argument); now each is ConfigError.
    EXPECT_TYPED_ERROR(common::requireU64("--pes", "abc"), ConfigError,
                       "not a decimal number");
    EXPECT_TYPED_ERROR(common::requireU64("--pes", "10x"), ConfigError,
                       "trailing garbage after number");
    EXPECT_TYPED_ERROR(common::requireU64("--pes", "-1"), ConfigError,
                       "sign not allowed");
    EXPECT_TYPED_ERROR(common::requireU64("--pes", "+1"), ConfigError,
                       "sign not allowed");
    EXPECT_TYPED_ERROR(common::requireU64("--pes", " 1"), ConfigError, "");
    EXPECT_TYPED_ERROR(common::requireU64("--pes", ""), ConfigError, "");
    EXPECT_TYPED_ERROR(
        common::requireU64("--pes", "99999999999999999999999"), ConfigError,
        "");
    EXPECT_TYPED_ERROR(common::requireU64("--pes", "0", 1), ConfigError, "");
    EXPECT_TYPED_ERROR(common::requireU64("--pes", "200", 1, 100),
                       ConfigError, "");
}

TEST(SvcParse, EnvKnobsFallBackInsteadOfWrapping)
{
    // GDS_CELL_RETRIES=-1 used to strtoul-wrap to ~4 billion retries.
    ::setenv("GDS_CELL_RETRIES", "-1", 1);
    EXPECT_EQ(harness::cellRetryLimit(), 2u);
    ::setenv("GDS_CELL_RETRIES", "7", 1);
    EXPECT_EQ(harness::cellRetryLimit(), 7u);
    ::unsetenv("GDS_CELL_RETRIES");

    ::setenv("GDS_CELL_BUDGET", "50x", 1);
    EXPECT_EQ(harness::cellCycleBudget(), 50'000'000'000ULL);
    ::unsetenv("GDS_CELL_BUDGET");

    ::setenv("GDS_CELL_WALL_BUDGET", "2.5s", 1);
    EXPECT_DOUBLE_EQ(harness::cellWallBudgetSeconds(), 0.0);
    ::setenv("GDS_CELL_WALL_BUDGET", "2.5", 1);
    EXPECT_DOUBLE_EQ(harness::cellWallBudgetSeconds(), 2.5);
    ::unsetenv("GDS_CELL_WALL_BUDGET");

    // GDS_JOBS=-1 must not become ~4 billion workers.
    ::setenv("GDS_JOBS", "-1", 1);
    const unsigned jobs = common::jobCount();
    EXPECT_GE(jobs, 1u);
    EXPECT_LE(jobs, 4096u);
    ::unsetenv("GDS_JOBS");
}

TEST(SvcParse, ScaleDivisorRejectsTrailingGarbage)
{
    ::setenv("GDS_SCALE", "64abc", 1);
    EXPECT_EQ(graph::datasetScaleDivisor(), 16u);
    ::setenv("GDS_SCALE", "64", 1);
    EXPECT_EQ(graph::datasetScaleDivisor(), 64u);
    ::unsetenv("GDS_SCALE");
}

// ---------------------------------------------------------------------
// Bugfix regression: GDS_PERFECT_MEM is run-scoped.
// ---------------------------------------------------------------------

TEST(SvcPerfectMem, EnvFlagIsResolvedOncePerRun)
{
    const graph::Csr g = graph::rmat(10, 8, 42, {}, false);
    auto run_once = [&] {
        auto a = algo::makeAlgorithm(algo::AlgorithmId::Bfs);
        core::GdsConfig cfg;
        core::GdsAccel accel(cfg, g, *a);
        core::RunOptions options;
        options.source = algo::defaultSource(g);
        return accel.run(options);
    };

    // Old bug: dispatchChunk() latched GDS_PERFECT_MEM in a
    // function-local static on the *first* run, while the quiescence
    // predicate re-read it every run — flipping the env mid-process
    // made the two halves of the scatter path disagree. Now the flag
    // is resolved once at run() entry, so each run is self-consistent
    // and later runs fully track the current environment.
    ::setenv("GDS_PERFECT_MEM", "1", 1);
    const auto perfect_first = run_once();
    ::unsetenv("GDS_PERFECT_MEM");
    const auto normal = run_once();
    ::setenv("GDS_PERFECT_MEM", "1", 1);
    const auto perfect_again = run_once();
    ::unsetenv("GDS_PERFECT_MEM");

    ASSERT_TRUE(perfect_first.completed());
    ASSERT_TRUE(normal.completed());
    ASSERT_TRUE(perfect_again.completed());
    // Same env -> identical simulation, even with a differing run in
    // between (the static would have made run 2 inherit run 1's value).
    EXPECT_EQ(perfect_first.cycles, perfect_again.cycles);
    EXPECT_EQ(perfect_first.memoryBytes, perfect_again.memoryBytes);
    // Perfect memory must actually change the timing model.
    EXPECT_NE(perfect_first.cycles, normal.cycles);
    // Results (vertex properties) are timing-independent.
    EXPECT_EQ(perfect_first.properties, normal.properties);
}

// ---------------------------------------------------------------------
// Observability: log formats, metrics, progress streams, job spans.
// ---------------------------------------------------------------------

TEST(SvcLog, HumanFormatMatchesHistoricalLinesWhenUnstructured)
{
    // Empty subsystem + no fields renders the bare historical
    // `warn: <msg>` form — scripts grepping daemon stderr (CI's
    // svc-smoke among them) must keep working.
    EXPECT_EQ(log::formatHuman(log::Level::Warn, "", "queue full", {}),
              "warn: queue full");
    EXPECT_EQ(log::formatHuman(log::Level::Info, "svc", "job admitted",
                               {{"job", "j1"}, {"key", "gds|BFS|FR"}}),
              "info: [svc] job admitted (job=j1, key=gds|BFS|FR)");
}

TEST(SvcLog, JsonFormatRoundTripsThroughTheParser)
{
    const std::string line = log::formatJson(
        log::Level::Error, "svc", "job failed: \"tilt\"\nline two",
        {{"job", "j9"}, {"configHash", "964470a381724da7"}});
    auto parsed = common::parseJson(line);
    ASSERT_TRUE(parsed.ok()) << line;
    const common::JsonValue &obj = parsed.value();
    ASSERT_TRUE(obj.isObject());
    EXPECT_EQ(obj.find("level")->asString(), "error");
    EXPECT_EQ(obj.find("subsys")->asString(), "svc");
    // Quotes and newlines survive the escape/parse round trip.
    EXPECT_EQ(obj.find("msg")->asString(), "job failed: \"tilt\"\nline two");
    EXPECT_EQ(obj.find("job")->asString(), "j9");
    EXPECT_EQ(obj.find("configHash")->asString(), "964470a381724da7");

    // The subsys member is omitted entirely when empty.
    const std::string bare =
        log::formatJson(log::Level::Info, "", "hello", {});
    auto bare_parsed = common::parseJson(bare);
    ASSERT_TRUE(bare_parsed.ok()) << bare;
    EXPECT_EQ(bare_parsed.value().find("subsys"), nullptr);
}

TEST_F(SvcTest, MetricszAgreesWithStatsz)
{
    svc::ServiceConfig config;
    config.workers = 2;
    config.maxQueue = 4;
    svc::SimService service(config);

    auto first = service.submit(bfsSpec());
    ASSERT_TRUE(first.ok()) << first.status().toString();
    awaitJob(service, first.value().id);
    auto second = service.submit(bfsSpec());
    ASSERT_TRUE(second.ok());
    EXPECT_TRUE(second.value().cached);

    // Every number /statsz reports must appear, equal, in /metricsz —
    // two views over one registry, not two counters that can drift.
    const svc::ServiceStats stats = service.stats();
    const std::string text = service.metricsText();
    auto expect_line = [&](const std::string &needle) {
        EXPECT_NE(text.find(needle + "\n"), std::string::npos)
            << "missing '" << needle << "' in:\n" << text;
    };
    expect_line("gds_svc_submitted_total " +
                std::to_string(stats.submitted));
    expect_line("gds_svc_admitted_total " + std::to_string(stats.admitted));
    expect_line("gds_svc_admission_rejected_total " +
                std::to_string(stats.rejected));
    expect_line("gds_svc_cache_hits_total " +
                std::to_string(stats.cacheHits));
    expect_line("gds_svc_cache_lookups_total " +
                std::to_string(stats.cacheLookups));
    expect_line("gds_svc_jobs_total{outcome=\"ok\"} 1");
    expect_line("gds_svc_jobs_total{outcome=\"cached\"} 1");
    expect_line("gds_svc_queue_depth 0");
    expect_line("gds_svc_e2e_latency_seconds_count 1");
    expect_line("gds_svc_queue_wait_seconds_count 1");
    expect_line("gds_svc_run_seconds_count 1");
    // The RSS gauges read /proc at scrape time; assert presence, not value.
    EXPECT_NE(text.find("gds_process_resident_memory_bytes "),
              std::string::npos);
    EXPECT_NE(text.find("gds_process_peak_resident_memory_bytes "),
              std::string::npos);

    // statsz percentiles come from the same bounded histogram.
    EXPECT_GT(stats.latencyP50, 0.0);
    EXPECT_LE(stats.latencyP50, stats.latencyMax * 2.0 + 1.0);
}

TEST_F(SvcTest, ProgressSinceStreamsLifecycleEvents)
{
    svc::ServiceConfig config;
    config.workers = 1;
    svc::SimService service(config);
    EXPECT_EQ(service.progressSince("j404", 0, 10).status().code(),
              ErrorCode::Config);

    svc::JobSpec spec = bfsSpec();
    spec.progressInterval = 100; // tiny FR runs a few thousand cycles
    auto admitted = service.submit(spec);
    ASSERT_TRUE(admitted.ok()) << admitted.status().toString();
    const std::string id = admitted.value().id;

    std::vector<svc::ProgressEvent> events;
    std::uint64_t after = 0;
    for (int i = 0;
         i < 600 && (events.empty() || !events.back().terminal); ++i) {
        auto batch = service.progressSince(id, after, 100);
        ASSERT_TRUE(batch.ok()) << batch.status().toString();
        for (svc::ProgressEvent &event : batch.value()) {
            EXPECT_GT(event.seq, after);
            after = event.seq;
            events.push_back(std::move(event));
        }
    }
    ASSERT_FALSE(events.empty());
    ASSERT_TRUE(events.back().terminal);

    EXPECT_NE(events.front().line.find("\"event\":\"start\""),
              std::string::npos)
        << events.front().line;
    std::size_t progress_seen = 0;
    double last_cycle = -1.0;
    for (std::size_t i = 1; i + 1 < events.size(); ++i) {
        auto parsed = common::parseJson(events[i].line);
        ASSERT_TRUE(parsed.ok()) << events[i].line;
        EXPECT_EQ(parsed.value().find("event")->asString(), "progress");
        const double cycle = parsed.value().find("cycle")->asNumber();
        EXPECT_GT(cycle, last_cycle);
        last_cycle = cycle;
        ++progress_seen;
    }
    EXPECT_GE(progress_seen, 1u);

    auto done = common::parseJson(events.back().line);
    ASSERT_TRUE(done.ok()) << events.back().line;
    EXPECT_EQ(done.value().find("event")->asString(), "done");
    EXPECT_EQ(done.value().find("state")->asString(), "done");
    ASSERT_NE(done.value().find("record"), nullptr);
    EXPECT_EQ(done.value().find("record")->find("status")->asString(),
              "ok");

    // A late subscriber (after completion) still gets the whole retained
    // stream from seq 0 — poll/watch of finished jobs is not a race.
    auto replay = service.progressSince(id, 0, 10);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay.value().size(), events.size());
}

/**
 * The acceptance path of the observability stack, end to end over real
 * sockets: submit -> subscribe -> streamed progress events -> completion,
 * then /metricsz exposes the job in the right outcome counter and
 * latency-histogram bucket, and the daemon trace holds the full
 * queue/load/sim/validate/store span chain for the job.
 */
TEST_F(SvcTest, ObservabilityEndToEndOverTheSocket)
{
    svc::ServerConfig config;
    config.socketPath = (scratch / "e2e.sock").string();
    config.metricsSocketPath = (scratch / "e2e_metrics.sock").string();
    config.service.workers = 1;
    config.service.tracePath = (scratch / "e2e_trace.json").string();
    svc::Server server(config);
    std::thread serve_thread([&] {
        const Status s = server.serve();
        EXPECT_TRUE(s.ok()) << s.toString();
    });

    auto connect = [&](const std::string &path) {
        Result<common::LineChannel> chan =
            Status::failure(ErrorCode::Internal, "never connected");
        for (int i = 0; i < 100 && !chan.ok(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            chan = common::connectUnix(path, 1000);
        }
        return chan;
    };

    auto chan = connect(config.socketPath);
    ASSERT_TRUE(chan.ok()) << chan.status().toString();
    ASSERT_TRUE(chan.value()
                    .writeLine(R"({"op":"submit","algorithm":"bfs",)"
                               R"("dataset":"FR","progress_interval":200})")
                    .ok());
    std::string line;
    ASSERT_TRUE(chan.value().readLine(line, 30'000).ok());
    ASSERT_NE(line.find("\"ok\":true"), std::string::npos) << line;
    ASSERT_NE(line.find("\"job\":\"j1\""), std::string::npos) << line;

    // Subscribe on the same connection: ack, then pushed events through
    // the terminal "done".
    ASSERT_TRUE(
        chan.value().writeLine(R"({"op":"subscribe","job":"j1"})").ok());
    ASSERT_TRUE(chan.value().readLine(line, 30'000).ok());
    ASSERT_NE(line.find("\"subscribed\":true"), std::string::npos) << line;

    std::vector<std::string> events;
    for (int i = 0; i < 600; ++i) {
        ASSERT_TRUE(chan.value().readLine(line, 30'000).ok());
        events.push_back(line);
        if (line.find("\"event\":\"done\"") != std::string::npos)
            break;
    }
    ASSERT_GE(events.size(), 3u) << "start + >=1 progress + done";
    EXPECT_NE(events.front().find("\"event\":\"start\""),
              std::string::npos);
    EXPECT_NE(events[1].find("\"event\":\"progress\""), std::string::npos);
    auto done = common::parseJson(events.back());
    ASSERT_TRUE(done.ok()) << events.back();
    EXPECT_EQ(done.value().find("state")->asString(), "done");
    const double latency =
        done.value().find("latency_seconds")->asNumber();
    const std::string config_hash =
        done.value().find("record")->find("configHash")->asString();
    EXPECT_GT(latency, 0.0);

    // A second subscriber that disconnects mid-stream must not wedge
    // anything (unsubscribe-by-close).
    {
        auto sub2 = connect(config.socketPath);
        ASSERT_TRUE(sub2.ok());
        ASSERT_TRUE(sub2.value()
                        .writeLine(R"({"op":"subscribe","job":"j1"})")
                        .ok());
        ASSERT_TRUE(sub2.value().readLine(line, 30'000).ok());
        sub2.value().close();
    }

    // Scrape the Prometheus socket: one exposition per connection.
    auto scrape = connect(config.metricsSocketPath);
    ASSERT_TRUE(scrape.ok()) << scrape.status().toString();
    std::string exposition;
    while (scrape.value().readLine(line, 5000).ok())
        exposition += line + "\n";
    EXPECT_NE(exposition.find("gds_svc_jobs_total{outcome=\"ok\"} 1\n"),
              std::string::npos)
        << exposition;
    EXPECT_NE(exposition.find("gds_svc_e2e_latency_seconds_count 1\n"),
              std::string::npos);

    // The latency histogram puts the job in the right bucket: every
    // finite bound below the observed latency has cumulative count 0,
    // every bound at/above it has count 1.
    std::istringstream lines(exposition);
    const std::string bucket_prefix =
        "gds_svc_e2e_latency_seconds_bucket{le=\"";
    std::size_t buckets_checked = 0;
    for (std::string l; std::getline(lines, l);) {
        if (l.compare(0, bucket_prefix.size(), bucket_prefix) != 0)
            continue;
        const std::size_t quote = l.find('"', bucket_prefix.size());
        ASSERT_NE(quote, std::string::npos) << l;
        const std::string bound = l.substr(
            bucket_prefix.size(), quote - bucket_prefix.size());
        const std::uint64_t cumulative =
            std::stoull(l.substr(quote + 2));
        if (bound == "+Inf") {
            EXPECT_EQ(cumulative, 1u) << l;
        } else {
            EXPECT_EQ(cumulative, latency <= std::stod(bound) ? 1u : 0u)
                << l << " (latency " << latency << ")";
        }
        ++buckets_checked;
    }
    EXPECT_GE(buckets_checked, 2u);

    // Drain; the daemon writes its span trace on the way out.
    ASSERT_TRUE(chan.value().writeLine("{\"op\":\"shutdown\"}").ok());
    ASSERT_TRUE(chan.value().readLine(line, 30'000).ok());
    chan.value().close();
    serve_thread.join();

    // The trace is Chrome trace-event JSON with one named track per job;
    // j1's track must carry the full span chain plus the configHash link
    // back to the per-run simulator trace.
    std::ifstream trace_in(config.service.tracePath);
    ASSERT_TRUE(trace_in.good()) << config.service.tracePath;
    std::stringstream buffer;
    buffer << trace_in.rdbuf();
    auto trace = common::parseJson(buffer.str());
    ASSERT_TRUE(trace.ok()) << trace.status().toString();
    const common::JsonValue *trace_events =
        trace.value().find("traceEvents");
    ASSERT_NE(trace_events, nullptr);
    ASSERT_TRUE(trace_events->isArray());

    double job_tid = -1;
    for (const common::JsonValue &event : trace_events->asArray()) {
        const common::JsonValue *ph = event.find("ph");
        if (ph && ph->asString() == "M" &&
            event.find("name")->asString() == "thread_name" &&
            event.find("args")->find("name")->asString() == "j1")
            job_tid = event.find("tid")->asNumber();
    }
    ASSERT_GE(job_tid, 0.0) << "no trace track for j1";

    std::vector<std::string> spans;
    bool saw_config_hash = false;
    for (const common::JsonValue &event : trace_events->asArray()) {
        const common::JsonValue *tid = event.find("tid");
        if (!tid || tid->asNumber() != job_tid)
            continue;
        const std::string ph = event.find("ph")->asString();
        if (ph == "B")
            spans.push_back(event.find("name")->asString());
        if (ph == "i" &&
            event.find("name")->asString() == "configHash") {
            saw_config_hash = true;
            EXPECT_EQ(event.find("args")->find("detail")->asString(),
                      config_hash);
        }
    }
    EXPECT_EQ(spans, (std::vector<std::string>{"queue", "load", "sim",
                                               "validate", "store"}));
    EXPECT_TRUE(saw_config_hash);
}

} // namespace
