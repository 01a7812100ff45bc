/**
 * @file
 * The simulation service proper, socket-free so tests can drive it
 * in-process: a job registry in front of the experiment harness.
 * Submitted jobs are admitted into a bounded queue, scheduled onto a
 * common::ThreadPool, share loaded graphs through the refcounted
 * harness::DatasetPool, and are served straight from the disk-backed
 * harness::ResultCache when an identical request (same key, see
 * JobSpec::key()) already ran — in this process or a previous one.
 *
 * Observability (the fleet-level view of a daemon):
 *  - every job's queue-wait, run and end-to-end latency is recorded into
 *    bounded stats::Histogram instances (O(1) memory for the daemon's
 *    whole life), and counters/gauges live in a stats::MetricsRegistry
 *    whose Prometheus rendering is served as /metricsz (metricsText());
 *  - each job emits a queue → load → sim → validate → store span chain
 *    into one per-daemon Perfetto trace (ServiceConfig::tracePath),
 *    with a configHash instant event linking the daemon-level span to
 *    the per-run simulator trace of the same cell;
 *  - a per-job interval obs::Sampler forwards live progress (cycle,
 *    frontier occupancy, edges, cycle-budget ETA) into a bounded
 *    per-job event buffer that subscribed clients drain through
 *    progressSince() — the {"op":"subscribe"} / `gds_cli watch` path.
 *
 * Draining: drain() stops admission (submits are rejected with a
 * "resource" error), raises the global sim::requestStop() flag so every
 * in-flight simulation stops at its next check boundary — writing a
 * resumable checkpoint first when a checkpoint directory is configured —
 * and waits for the pool to empty, then writes the daemon trace. A
 * drained service can still answer poll/result/statsz/metricsz, so
 * clients can collect what finished.
 */

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "harness/dataset_pool.hh"
#include "harness/experiment.hh"
#include "obs/trace.hh"
#include "stats/metrics.hh"
#include "svc/protocol.hh"

namespace gds::svc
{

/** Daemon-side configuration (CLI flags of gds_simd). */
struct ServiceConfig
{
    /** Simulation worker threads. */
    unsigned workers = 2;
    /** Admission bound: queued + running jobs; submits beyond it are
     *  rejected with a "resource" error instead of queuing unboundedly. */
    std::size_t maxQueue = 8;
    /** Checkpoint directory for in-flight jobs ("" disables). Jobs
     *  interrupted by a drain leave `<dir>/<sanitized key>.ckpt` and an
     *  identical resubmission resumes from it. */
    std::string checkpointDir;
    /** Perfetto trace of job-lifecycle spans, written at drain (""
     *  disables). One track per job, named by its jobId. */
    std::string tracePath;
};

/** Lifecycle of one submitted job. */
enum class JobState
{
    Queued,
    Running,
    Done,   ///< finished with record.ok()
    Failed, ///< finished with a non-ok status ("stopped", "timeout", ...)
};

const char *jobStateName(JobState state);

/** Snapshot of one job for poll/result responses. */
struct JobView
{
    std::string id;
    JobState state = JobState::Queued;
    bool cached = false; ///< served from the result cache at submit
    harness::RunRecord record; ///< meaningful once Done/Failed
    double latencySeconds = 0.0; ///< submit → finish (0 while in flight)
};

/** Aggregate service metrics (the /statsz payload). */
struct ServiceStats
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0; ///< admission-queue-full rejections
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheLookups = 0;
    std::size_t queueDepth = 0; ///< admitted, not yet finished
    std::size_t running = 0;
    unsigned workers = 0;
    bool draining = false;
    std::size_t datasetsResident = 0;
    std::vector<std::string> datasetKeys;
    /** Bytes of mmap-served dataset storage behind resident graphs. */
    std::uint64_t datasetMappedBytes = 0;
    /** Bytes of heap-owned dataset storage behind resident graphs. */
    std::uint64_t datasetHeapBytes = 0;
    /** Submit→finish latency percentiles over finished jobs (seconds),
     *  estimated from the bounded end-to-end latency histogram. */
    double latencyP50 = 0.0;
    double latencyP90 = 0.0;
    double latencyMax = 0.0;
};

/**
 * One progress-stream event: a pre-rendered JSON line ({"event":"start"},
 * {"event":"progress",...} or the terminal {"event":"done",...}), with a
 * per-job sequence number so a subscriber resumes where it left off.
 */
struct ProgressEvent
{
    std::uint64_t seq = 0;
    std::string line;
    bool terminal = false; ///< the job's final event ("done")
};

class SimService
{
  public:
    explicit SimService(ServiceConfig service_config);
    ~SimService();

    SimService(const SimService &) = delete;
    SimService &operator=(const SimService &) = delete;

    /**
     * Admit one job. Returns its JobView — state Done immediately when
     * the result cache already holds the record (cached=true). Fails
     * with ErrorCode::Resource when the admission queue is full or the
     * service is draining.
     */
    Result<JobView> submit(const JobSpec &spec);

    /** Look up a job by id (ConfigError for an unknown id). */
    Result<JobView> poll(const std::string &job_id) const;

    /**
     * Fetch a finished job's record. A job still in flight fails with
     * ErrorCode::Timeout ("not finished yet") so clients can poll-loop
     * on the code, not on message text.
     */
    Result<JobView> result(const std::string &job_id) const;

    /**
     * Fetch a job's progress events with sequence numbers above
     * @p after_seq, blocking up to @p timeout_ms for the first new one.
     * An empty vector means the wait timed out (the job is still
     * running and quiet) — callers loop. The event carrying
     * ProgressEvent::terminal ends the stream. A subscriber that fell
     * more than the buffer bound behind resumes from the oldest
     * retained event (progress is a lossy telemetry stream, not a log).
     * Unknown ids fail with ConfigError.
     */
    Result<std::vector<ProgressEvent>>
    progressSince(const std::string &job_id, std::uint64_t after_seq,
                  unsigned timeout_ms) const;

    /** Metrics snapshot. */
    ServiceStats stats() const;

    /** Serialize stats() as one JSON object line ({"ok":true,...}). */
    std::string statszLine() const;

    /** The full metrics registry in Prometheus text exposition format
     *  (the /metricsz payload). */
    std::string metricsText() const;

    /** Stop admission, stop in-flight runs (checkpointing), wait, and
     *  write the daemon span trace when one is configured. */
    void drain();

    bool draining() const;

  private:
    using TimePoint = std::chrono::steady_clock::time_point;

    struct Job
    {
        std::string id;
        JobSpec spec;
        std::string key;
        JobState state = JobState::Queued;
        bool cached = false;
        harness::RunRecord record;
        TimePoint submitTime;
        TimePoint startTime;
        double latencySeconds = 0.0;
        /** Bounded progress-event ring (subscribe streams drain it). */
        std::deque<ProgressEvent> events;
        std::uint64_t nextSeq = 1;
    };

    void runJob(const std::shared_ptr<Job> &job);
    JobView viewOf(const Job &job) const;

    /** Append one event to the job's ring and wake subscribers.
     *  Caller must hold mu. */
    void publishLocked(Job &job, std::string line, bool terminal);

    /** The terminal {"event":"done",...} line for a finished job. */
    static std::string doneEventLine(const Job &job);

    /** Record the queue/load/sim/validate/store span chain (and the
     *  configHash link) for a finished job on the daemon tracer. */
    void recordSpans(const Job &job, TimePoint load_end, TimePoint finish);

    /** Microseconds from the daemon epoch to @p t (the tracer's clock). */
    Cycle traceStamp(TimePoint t) const;

    ServiceConfig config;

    // Metrics. Counter handles are cached here so hot paths increment
    // without touching the registry lock; gauges read live state at
    // scrape time. Lock order: registry internals -> mu (expose() calls
    // gauge callbacks that take mu), so no thread may call a registry
    // registration method while holding mu.
    mutable stats::MetricsRegistry registry;
    stats::MetricsRegistry::Counter *ctrSubmitted;
    stats::MetricsRegistry::Counter *ctrAdmitted;
    stats::MetricsRegistry::Counter *ctrRejected;
    stats::MetricsRegistry::Counter *ctrCacheHits;
    stats::MetricsRegistry::Counter *ctrCacheLookups;
    stats::MetricsRegistry::Counter *ctrCheckpointWrites;
    stats::MetricsRegistry::Counter *ctrJobsCached;
    stats::Histogram *histQueueWait;
    stats::Histogram *histRun;
    stats::Histogram *histE2e;

    harness::DatasetPool pool;
    harness::ResultCache cache;

    // Daemon-level span trace (one track per job). The tracer itself is
    // single-threaded; traceMu serializes workers. Lock order: mu may be
    // held when taking traceMu, never the reverse.
    const TimePoint epoch = std::chrono::steady_clock::now();
    mutable std::mutex traceMu;
    obs::Tracer tracer{"gds_simd"};

    std::unique_ptr<common::ThreadPool> threads; ///< destroyed before pool

    mutable std::mutex mu;
    mutable std::condition_variable progressCv;
    std::map<std::string, std::shared_ptr<Job>> jobs;
    std::uint64_t nextId = 1;
    std::size_t inFlight = 0; ///< admitted, not yet finished
    std::size_t runningNow = 0;
    bool stopping = false;
    ServiceStats counters; ///< monotonic fields only (queue fields derived)
};

} // namespace gds::svc
