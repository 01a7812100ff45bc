#include "svc/service.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/log.hh"
#include "common/logging.hh"
#include "common/rss.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"

namespace gds::svc
{

namespace
{

/** Filesystem-safe checkpoint basename from a cache key. */
std::string
sanitizedBasename(const std::string &key)
{
    std::string base = key;
    for (char &c : base) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        if (!ok)
            c = '_';
    }
    return base;
}

/** Per-job event-ring bound: a subscriber that falls further behind
 *  resumes from the oldest retained event. ~512 events outlive any
 *  realistic poll gap while bounding a job's telemetry memory. */
constexpr std::size_t kEventRingBound = 512;

/** Latency histogram shape: 1 ms lowest bound, doubling per bucket, 20
 *  finite buckets — covering 1 ms .. ~524 s, beyond which the +Inf
 *  bucket and the exact tracked max take over. */
constexpr double kLatLowest = 1e-3;
constexpr double kLatGrowth = 2.0;
constexpr int kLatBuckets = 20;

double
elapsedSeconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

const char *
jobStateName(JobState state)
{
    switch (state) {
      case JobState::Queued:
        return "queued";
      case JobState::Running:
        return "running";
      case JobState::Done:
        return "done";
      case JobState::Failed:
        return "failed";
    }
    panic("bad job state");
}

SimService::SimService(ServiceConfig service_config)
    : config(std::move(service_config))
{
    gds_require(config.workers > 0, ConfigError,
                "service needs at least one worker");
    gds_require(config.maxQueue > 0, ConfigError,
                "service needs a positive admission bound");
    counters.workers = config.workers;

    // Register every metric up front: /metricsz exposes the full schema
    // (zero-valued) from the first scrape, and hot paths touch only the
    // cached handles, never the registry lock.
    ctrSubmitted = &registry.counter(
        "gds_svc_submitted_total", "Jobs submitted (accepted or not)");
    ctrAdmitted = &registry.counter(
        "gds_svc_admitted_total", "Jobs admitted into the run queue");
    ctrRejected = &registry.counter(
        "gds_svc_admission_rejected_total",
        "Submissions rejected because the admission queue was full");
    ctrCacheHits = &registry.counter(
        "gds_svc_cache_hits_total",
        "Submissions served from the result cache");
    ctrCacheLookups = &registry.counter(
        "gds_svc_cache_lookups_total",
        "Result-cache probes at admission");
    ctrCheckpointWrites = &registry.counter(
        "gds_svc_checkpoint_writes_total",
        "In-flight jobs checkpointed by a drain");
    ctrJobsCached = &registry.counter(
        "gds_svc_jobs_total", "Finished jobs by outcome", "outcome",
        "cached");
    histQueueWait = &registry.histogram(
        "gds_svc_queue_wait_seconds",
        "Submit-to-start wait of admitted jobs", kLatLowest, kLatGrowth,
        kLatBuckets);
    histRun = &registry.histogram(
        "gds_svc_run_seconds", "Start-to-finish run time of jobs",
        kLatLowest, kLatGrowth, kLatBuckets);
    histE2e = &registry.histogram(
        "gds_svc_e2e_latency_seconds",
        "Submit-to-finish latency of jobs", kLatLowest, kLatGrowth,
        kLatBuckets);
    registry.gauge("gds_svc_queue_depth",
                   "Jobs admitted and not yet finished", [this] {
                       const std::lock_guard<std::mutex> lock(mu);
                       return static_cast<double>(inFlight);
                   });
    registry.gauge("gds_svc_running", "Jobs running right now", [this] {
        const std::lock_guard<std::mutex> lock(mu);
        return static_cast<double>(runningNow);
    });
    registry.gauge("gds_svc_draining",
                   "1 while the service is draining", [this] {
                       const std::lock_guard<std::mutex> lock(mu);
                       return stopping ? 1.0 : 0.0;
                   });
    registry.gauge("gds_svc_workers", "Simulation worker threads",
                   [this] { return static_cast<double>(config.workers); });
    registry.gauge("gds_svc_datasets_resident",
                   "Datasets resident in the shared pool", [this] {
                       return static_cast<double>(pool.residentCount());
                   });
    registry.gauge("gds_svc_dataset_mapped_bytes",
                   "Bytes of mmap-served dataset storage (page-cache "
                   "shared)",
                   [this] {
                       return static_cast<double>(pool.mappedBytes());
                   });
    registry.gauge("gds_svc_dataset_heap_bytes",
                   "Bytes of heap-owned dataset storage", [this] {
                       return static_cast<double>(pool.heapBytes());
                   });
    registry.gauge("gds_process_resident_memory_bytes",
                   "Resident set size of the daemon process", [] {
                       return static_cast<double>(common::currentRssBytes());
                   });
    registry.gauge("gds_process_peak_resident_memory_bytes",
                   "Peak resident set size of the daemon process", [] {
                       return static_cast<double>(common::peakRssBytes());
                   });

    threads = std::make_unique<common::ThreadPool>(config.workers);
}

SimService::~SimService()
{
    drain();
}

Cycle
SimService::traceStamp(TimePoint t) const
{
    // The daemon tracer's clock is wall microseconds since service
    // start, reusing the tracer's cycles-rendered-as-us convention.
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        t - epoch);
    return static_cast<Cycle>(std::max<std::int64_t>(us.count(), 0));
}

void
SimService::publishLocked(Job &job, std::string line, bool terminal)
{
    ProgressEvent event;
    event.seq = job.nextSeq++;
    event.line = std::move(line);
    event.terminal = terminal;
    job.events.push_back(std::move(event));
    while (job.events.size() > kEventRingBound)
        job.events.pop_front();
    progressCv.notify_all();
}

std::string
SimService::doneEventLine(const Job &job)
{
    std::ostringstream os;
    os << "{\"event\":\"done\",\"job\":";
    stats::emitJsonString(os, job.id);
    os << ",\"state\":";
    stats::emitJsonString(os, jobStateName(job.state));
    os << ",\"cached\":" << (job.cached ? "true" : "false")
       << ",\"latency_seconds\":";
    stats::emitJsonNumber(os, job.latencySeconds);
    os << ",\"record\":" << recordJson(job.record) << '}';
    return os.str();
}

Result<JobView>
SimService::submit(const JobSpec &spec)
{
    const std::string key = spec.key();
    const bool weighted =
        algo::makeAlgorithm(spec.algorithm)->usesWeights();

    ctrSubmitted->inc();
    std::shared_ptr<Job> job;
    bool cached_hit = false;
    {
        const std::lock_guard<std::mutex> lock(mu);
        ++counters.submitted;
        if (stopping)
            return Status::failure(ErrorCode::Resource,
                                   "service is draining; not accepting "
                                   "new jobs");

        job = std::make_shared<Job>();
        // (vformat, not "j" + to_string: GCC 12 -Wrestrict misfires on
        // literal + temporary-string concatenation under -Werror.)
        job->id = detail::vformat(
            "j%llu", static_cast<unsigned long long>(nextId++));
        job->spec = spec;
        job->key = key;
        job->submitTime = std::chrono::steady_clock::now();

        // Cache probe at admission: a repeat request costs one map
        // lookup, no queue slot and no worker.
        ++counters.cacheLookups;
        ctrCacheLookups->inc();
        if (auto hit = cache.lookup(key)) {
            ++counters.cacheHits;
            ctrCacheHits->inc();
            ctrJobsCached->inc();
            job->cached = true;
            job->state = JobState::Done;
            job->record = *hit;
            jobs.emplace(job->id, job);
            publishLocked(*job, doneEventLine(*job), true);
            cached_hit = true;
        } else if (inFlight >= config.maxQueue) {
            ++counters.rejected;
            ctrRejected->inc();
            return Status::failure(
                ErrorCode::Resource,
                detail::vformat("admission queue full (%zu/%zu jobs in "
                                "flight); resubmit later",
                                inFlight, config.maxQueue));
        } else {
            ++counters.admitted;
            ctrAdmitted->inc();
            ++inFlight;
            jobs.emplace(job->id, job);
        }
    }

    if (cached_hit) {
        if (!config.tracePath.empty()) {
            const std::lock_guard<std::mutex> trace_lock(traceMu);
            tracer.instant(tracer.track(job->id), "cached",
                           traceStamp(job->submitTime),
                           job->record.configHash);
        }
        log::infof("svc",
                   {{"job", job->id},
                    {"configHash", job->record.configHash}},
                   "job served from result cache");
        const std::lock_guard<std::mutex> lock(mu);
        return viewOf(*job);
    }

    log::infof("svc", {{"job", job->id}, {"key", key}}, "job admitted");

    // Reserve the dataset reference outside the registry lock (the pool
    // has its own); the matching release happens when the job finishes.
    pool.expect(spec.dataset, weighted);
    threads->submit([this, job] { runJob(job); });
    {
        const std::lock_guard<std::mutex> lock(mu);
        return viewOf(*job);
    }
}

void
SimService::runJob(const std::shared_ptr<Job> &job)
{
    const TimePoint start = std::chrono::steady_clock::now();
    {
        const std::lock_guard<std::mutex> lock(mu);
        job->state = JobState::Running;
        job->startTime = start;
        ++runningNow;
        std::ostringstream os;
        os << "{\"event\":\"start\",\"job\":";
        stats::emitJsonString(os, job->id);
        os << ",\"key\":";
        stats::emitJsonString(os, job->key);
        os << '}';
        publishLocked(*job, os.str(), false);
    }
    histQueueWait->observe(elapsedSeconds(job->submitTime, start));

    const JobSpec &spec = job->spec;
    const bool weighted =
        algo::makeAlgorithm(spec.algorithm)->usesWeights();
    // ETA horizon for progress events: the cycle budget this run will
    // be cut off at, whatever its source.
    const Cycle budget = spec.cycleBudget != 0 ? spec.cycleBudget
                                               : harness::cellCycleBudget();

    harness::RunRecord record;
    TimePoint load_end = start;
    try {
        // Per-job policy: the request's budgets and overrides, plus a
        // per-key checkpoint so a drained job's resubmission resumes
        // where the SIGTERM stopped it.
        harness::CellPolicy policy;
        policy.cycleBudget = spec.cycleBudget;
        policy.wallBudgetSeconds = spec.wallBudgetSeconds;
        policy.source = spec.source;
        policy.iterations = spec.iterations;
        core::CheckpointOptions ckpt;
        if (!config.checkpointDir.empty()) {
            ckpt.dir = config.checkpointDir;
            ckpt.basename = sanitizedBasename(job->key);
            ckpt.identity = job->key;
            ckpt.resume = true;
            ckpt.interval = 100'000'000;
            policy.checkpoint = &ckpt;
        }

        const std::string system = harness::systemName(spec.system);
        record = cache.getOrRun(job->key, [&] {
            return harness::runCell(system, spec.algorithm, spec.dataset,
                                    [&] {
                auto g = pool.get(spec.dataset, weighted);
                load_end = std::chrono::steady_clock::now();

                // A fresh sampler per attempt: its probes capture the
                // accelerator built inside runGds/runGraphicionado, so
                // reusing one across runCell retries would sample a
                // destroyed model. Always attached (interval 0 merely
                // never fires), keeping checkpoint sampler-presence
                // symmetric across drain/resume whatever the
                // progress_interval of either request.
                obs::Sampler sampler;
                sampler.setInterval(spec.progressInterval);
                // Resolved from the sealed column set at the first
                // sample; -1 while unresolved / absent.
                std::ptrdiff_t frontier_col = -1, edges_col = -1;
                bool cols_resolved = false;
                sampler.setOnSample([&](Cycle cycle,
                                        const std::vector<double> &row) {
                    if (!cols_resolved) {
                        const auto &cols = sampler.series().columns();
                        for (std::size_t c = 0; c < cols.size(); ++c) {
                            if (cols[c].find("frontier") !=
                                std::string::npos)
                                frontier_col =
                                    static_cast<std::ptrdiff_t>(c);
                            if (cols[c] == "edgesProcessed")
                                edges_col =
                                    static_cast<std::ptrdiff_t>(c);
                        }
                        cols_resolved = true;
                    }
                    std::ostringstream os;
                    os << "{\"event\":\"progress\",\"job\":";
                    stats::emitJsonString(os, job->id);
                    os << ",\"cycle\":" << cycle;
                    if (edges_col >= 0) {
                        os << ",\"edges\":";
                        stats::emitJsonNumber(
                            os, row[static_cast<std::size_t>(edges_col)]);
                    }
                    if (frontier_col >= 0) {
                        os << ",\"frontier\":";
                        stats::emitJsonNumber(
                            os,
                            row[static_cast<std::size_t>(frontier_col)]);
                    }
                    os << ",\"eta_cycles\":"
                       << (budget > cycle ? budget - cycle : 0) << '}';
                    const std::lock_guard<std::mutex> lock(mu);
                    publishLocked(*job, os.str(), false);
                });
                policy.sampler = &sampler;

                switch (spec.system) {
                  case harness::SystemId::GraphDynS:
                    return harness::runGds(spec.algorithm, spec.dataset,
                                           *g, harness::GdsVariant::Full,
                                           nullptr, &policy);
                  case harness::SystemId::Graphicionado:
                    return harness::runGraphicionado(
                        spec.algorithm, spec.dataset, *g, &policy);
                  case harness::SystemId::Gunrock:
                    return harness::runGunrock(spec.algorithm,
                                               spec.dataset, *g);
                }
                panic("bad system id");
            });
        });
    } catch (const std::exception &e) {
        // runCell degrades SimErrors into records; anything else (a
        // std::bad_alloc, a filesystem surprise) must not poison the
        // pool's wait() for unrelated jobs.
        log::errorf("svc", {{"job", job->id}},
                    "job failed unexpectedly: %s", e.what());
        record.system = harness::systemName(spec.system);
        record.algorithm = algo::algorithmName(spec.algorithm);
        record.dataset = spec.dataset;
        record.status = "internal";
    }

    pool.release(spec.dataset, weighted);

    const TimePoint finish = std::chrono::steady_clock::now();
    histRun->observe(elapsedSeconds(start, finish));
    histE2e->observe(elapsedSeconds(job->submitTime, finish));
    // Jobs-by-outcome counter series materialize lazily per status name;
    // the registry lock taken here is fine because mu is NOT held.
    registry.counter("gds_svc_jobs_total", "Finished jobs by outcome",
                     "outcome", record.status)
        .inc();
    if (record.status == "stopped" && !config.checkpointDir.empty())
        ctrCheckpointWrites->inc();

    log::infof("svc",
               {{"job", job->id},
                {"configHash", record.configHash},
                {"outcome", record.status}},
               "job finished in %.3fs",
               elapsedSeconds(job->submitTime, finish));

    {
        const std::lock_guard<std::mutex> lock(mu);
        job->record = record;
        job->state = record.ok() ? JobState::Done : JobState::Failed;
        job->latencySeconds = elapsedSeconds(job->submitTime, finish);
        record.ok() ? ++counters.completed : ++counters.failed;
        --runningNow;
        --inFlight;
        publishLocked(*job, doneEventLine(*job), true);
    }

    recordSpans(*job, load_end, finish);
}

void
SimService::recordSpans(const Job &job, TimePoint load_end, TimePoint finish)
{
    if (config.tracePath.empty())
        return;

    // One sequential, depth-1 span chain per job track. The sim and
    // validate spans are reconstructed from the record's wall-clock
    // split and clamped so the chain stays monotonic even when runCell
    // retried the cell (load_end then belongs to the last attempt).
    const Cycle t_submit = traceStamp(job.submitTime);
    const Cycle t_start = std::max(traceStamp(job.startTime), t_submit);
    const Cycle t_finish = std::max(traceStamp(finish), t_start);
    const Cycle t_load = std::min(
        std::max(traceStamp(load_end), t_start), t_finish);
    const auto micros = [](double seconds) {
        return static_cast<Cycle>(std::max(seconds, 0.0) * 1e6);
    };
    const Cycle t_sim = std::min(
        t_load + micros(job.record.wallSimSeconds), t_finish);
    const Cycle t_validate = std::min(
        t_sim + micros(job.record.wallValidateSeconds), t_finish);

    const std::lock_guard<std::mutex> lock(traceMu);
    const obs::TrackId track = tracer.track(job.id);
    tracer.begin(track, "queue", t_submit);
    tracer.end(track, t_start);
    tracer.begin(track, "load", t_start);
    tracer.end(track, t_load);
    tracer.begin(track, "sim", t_load);
    tracer.end(track, t_sim);
    tracer.begin(track, "validate", t_sim);
    tracer.end(track, t_validate);
    tracer.begin(track, "store", t_validate);
    tracer.end(track, t_finish);
    // The link back to the per-run simulator trace of the same cell.
    tracer.instant(track, "configHash", t_finish, job.record.configHash);
}

JobView
SimService::viewOf(const Job &job) const
{
    JobView v;
    v.id = job.id;
    v.state = job.state;
    v.cached = job.cached;
    v.record = job.record;
    v.latencySeconds = job.latencySeconds;
    return v;
}

Result<JobView>
SimService::poll(const std::string &job_id) const
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(job_id);
    if (it == jobs.end())
        return Status::failure(ErrorCode::Config,
                               "unknown job '" + job_id + "'");
    return viewOf(*it->second);
}

Result<JobView>
SimService::result(const std::string &job_id) const
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = jobs.find(job_id);
    if (it == jobs.end())
        return Status::failure(ErrorCode::Config,
                               "unknown job '" + job_id + "'");
    const Job &job = *it->second;
    if (job.state != JobState::Done && job.state != JobState::Failed)
        return Status::failure(ErrorCode::Timeout,
                               "job '" + job_id + "' not finished yet");
    return viewOf(job);
}

Result<std::vector<ProgressEvent>>
SimService::progressSince(const std::string &job_id,
                          std::uint64_t after_seq,
                          unsigned timeout_ms) const
{
    std::unique_lock<std::mutex> lock(mu);
    const auto it = jobs.find(job_id);
    if (it == jobs.end())
        return Status::failure(ErrorCode::Config,
                               "unknown job '" + job_id + "'");
    const std::shared_ptr<Job> job = it->second;

    const auto fresh = [&] {
        return !job->events.empty() && job->events.back().seq > after_seq;
    };
    progressCv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        fresh);

    std::vector<ProgressEvent> out;
    for (const ProgressEvent &event : job->events)
        if (event.seq > after_seq)
            out.push_back(event);
    return out;
}

ServiceStats
SimService::stats() const
{
    ServiceStats s;
    {
        const std::lock_guard<std::mutex> lock(mu);
        s = counters;
        s.queueDepth = inFlight;
        s.running = runningNow;
        s.draining = stopping;
    }
    s.datasetsResident = pool.residentCount();
    s.datasetKeys = pool.residentKeys();
    s.datasetMappedBytes = pool.mappedBytes();
    s.datasetHeapBytes = pool.heapBytes();
    s.latencyP50 = histE2e->percentile(0.50);
    s.latencyP90 = histE2e->percentile(0.90);
    s.latencyMax = histE2e->max();
    return s;
}

std::string
SimService::statszLine() const
{
    const ServiceStats s = stats();
    std::ostringstream os;
    auto num = [&](const char *name, double value) {
        stats::emitJsonString(os, name);
        os << ':';
        stats::emitJsonNumber(os, value);
        os << ',';
    };
    os << "{\"ok\":true,";
    num("submitted", static_cast<double>(s.submitted));
    num("admitted", static_cast<double>(s.admitted));
    num("rejected", static_cast<double>(s.rejected));
    num("completed", static_cast<double>(s.completed));
    num("failed", static_cast<double>(s.failed));
    num("cache_hits", static_cast<double>(s.cacheHits));
    num("cache_lookups", static_cast<double>(s.cacheLookups));
    num("cache_hit_rate",
        s.cacheLookups == 0 ? 0.0
                            : static_cast<double>(s.cacheHits) /
                                  static_cast<double>(s.cacheLookups));
    num("queue_depth", static_cast<double>(s.queueDepth));
    num("running", static_cast<double>(s.running));
    num("workers", s.workers);
    os << "\"draining\":" << (s.draining ? "true" : "false") << ',';
    num("datasets_resident", static_cast<double>(s.datasetsResident));
    num("dataset_mapped_bytes",
        static_cast<double>(s.datasetMappedBytes));
    num("dataset_heap_bytes", static_cast<double>(s.datasetHeapBytes));
    os << "\"dataset_keys\":[";
    for (std::size_t i = 0; i < s.datasetKeys.size(); ++i) {
        if (i)
            os << ',';
        stats::emitJsonString(os, s.datasetKeys[i]);
    }
    os << "],";
    num("latency_p50_seconds", s.latencyP50);
    num("latency_p90_seconds", s.latencyP90);
    os << "\"latency_max_seconds\":";
    stats::emitJsonNumber(os, s.latencyMax);
    os << '}';
    return os.str();
}

std::string
SimService::metricsText() const
{
    return registry.expose();
}

void
SimService::drain()
{
    {
        const std::lock_guard<std::mutex> lock(mu);
        if (stopping && !threads)
            return; // already drained
        stopping = true;
    }
    // Every in-flight run notices the global stop flag at its next
    // check-interval boundary, writes a checkpoint when configured, and
    // returns RunOutcome::Stopped (record status "stopped").
    sim::requestStop();
    if (threads) {
        try {
            threads->wait();
        } catch (const std::exception &e) {
            log::warnf("svc", {}, "drain: worker raised: %s", e.what());
        }
        threads.reset();
        if (!config.tracePath.empty()) {
            const std::lock_guard<std::mutex> lock(traceMu);
            if (tracer.writeFile(config.tracePath)) {
                log::infof("svc", {{"path", config.tracePath}},
                           "daemon span trace written");
            }
        }
    }
    sim::clearStopRequest();
    // Wake any subscriber still waiting so it re-checks its stop flags.
    progressCv.notify_all();
}

bool
SimService::draining() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return stopping;
}

} // namespace gds::svc
