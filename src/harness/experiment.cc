#include "harness/experiment.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/fsio.hh"
#include "common/log.hh"
#include "common/parallel.hh"
#include "common/parse.hh"
#include "common/rss.hh"
#include "energy/energy_model.hh"
#include "graph/loader.hh"
#include "harness/dataset_pool.hh"
#include "harness/manifest.hh"
#include "harness/walltime.hh"
#include "stats/json.hh"

namespace gds::harness
{

bool
datasetMmapEnabled()
{
    // GDS_DATASET_MMAP=0 forces heap copies (e.g. to A/B the two storage
    // paths); default is zero-copy mapped serving.
    return common::parseEnvU64("GDS_DATASET_MMAP", 1, 0, 1) == 1;
}

std::string
datasetCachePath(const std::string &name, unsigned scale, bool weighted)
{
    // "_g2" versions the generation scheme (chunked counter-seeded
    // generators): a cache written by the old sequential generators holds
    // different edges, so it must never satisfy a new-scheme request.
    return "gds_dataset_" + name + "_s" + std::to_string(scale) +
           (weighted ? "_w" : "_u") + "_g2.bin";
}

graph::Csr
loadDataset(const std::string &name, bool weighted)
{
    const unsigned scale = graph::datasetScaleDivisor();
    const std::string cache_file = datasetCachePath(name, scale, weighted);
    const bool mmap_enabled = datasetMmapEnabled();
    if (std::filesystem::exists(cache_file)) {
        try {
            return mmap_enabled ? graph::loadBinaryMapped(cache_file)
                                : graph::loadBinary(cache_file);
        } catch (const SimError &e) {
            log::warnf("harness", {},
                       "dataset cache '%s' unusable (%s); regenerating",
                       cache_file.c_str(), e.what());
            std::filesystem::remove(cache_file);
        }
    }
    graph::Csr g =
        graph::makeDataset(graph::datasetByName(name), scale, weighted);
    // Atomic write: a crash or a concurrent process never leaves a
    // truncated cache file for the next run to trip over.
    graph::saveBinaryAtomic(g, cache_file);
    if (mmap_enabled) {
        // Serve the freshly written file zero-copy so the generation-time
        // heap arrays are released and later processes share the same
        // page-cache pages. Falls back to the in-memory graph if the
        // re-map fails (e.g. read-only corner cases).
        try {
            return graph::loadBinaryMapped(cache_file);
        } catch (const SimError &e) {
            log::warnf("harness", {},
                       "cannot re-map fresh dataset cache '%s' (%s); serving "
                       "from heap", cache_file.c_str(), e.what());
        }
    }
    return g;
}

Cycle
cellCycleBudget()
{
    // parseEnvU64 rejects sign, garbage and overflow (strtoull would
    // happily wrap "-1" to 2^64-1) and warns + falls back to the default.
    return common::parseEnvU64("GDS_CELL_BUDGET", 50'000'000'000ULL, 1);
}

double
cellWallBudgetSeconds()
{
    return common::parseEnvF64("GDS_CELL_WALL_BUDGET", 0.0);
}

unsigned
cellRetryLimit()
{
    return static_cast<unsigned>(
        common::parseEnvU64("GDS_CELL_RETRIES", 2, 0, 100));
}

core::CheckpointOptions
cellCheckpointOptions(const std::string &algorithm,
                      const std::string &dataset,
                      const std::string &config_hash)
{
    core::CheckpointOptions ckpt;
    const std::string dir = common::parseEnvStr("GDS_CHECKPOINT_DIR", "");
    if (dir.empty())
        return ckpt; // disabled: empty dir, interval 0
    ckpt.dir = dir;
    // One checkpoint file per cell: the basename encodes what is being
    // run, the identity (verified on resume) fingerprints how.
    ckpt.basename =
        checkpointBasename(algorithm + "_" + dataset + "_" + config_hash);
    ckpt.identity = config_hash;
    ckpt.resume = true;
    // 100 ms of simulated time at 1 GHz unless overridden; the strict
    // parser keeps "-1"/"1e6"/trailing garbage from becoming an interval.
    ckpt.interval =
        common::parseEnvU64("GDS_CHECKPOINT_INTERVAL", 100'000'000, 1);
    return ckpt;
}

std::string
checkpointBasename(std::string name)
{
    for (char &c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_';
        if (!ok)
            c = '_';
    }
    return name;
}

RunRecord
runCell(const std::string &system, algo::AlgorithmId algorithm,
        const std::string &dataset,
        const std::function<RunRecord()> &compute)
{
    const unsigned retries = cellRetryLimit();
    for (unsigned attempt = 0;; ++attempt) {
        try {
            return compute();
        } catch (const SimError &e) {
            // Environmental failures (an unreadable checkpoint, a torn
            // dataset cache, an internal race) can succeed on a rerun;
            // verdicts about the simulation itself cannot.
            const bool transient = e.code() == ErrorCode::Internal ||
                                   e.code() == ErrorCode::Checkpoint ||
                                   e.code() == ErrorCode::CorruptInput;
            if (transient && attempt < retries) {
                const std::uint64_t delay_ms =
                    std::min<std::uint64_t>(100ULL << attempt, 2000);
                log::warnf("harness", {},
                           "cell %s/%s/%s attempt %u failed (%s); retrying in "
                           "%llu ms", system.c_str(),
                           algo::algorithmName(algorithm).c_str(),
                           dataset.c_str(), attempt + 1, e.what(),
                           static_cast<unsigned long long>(delay_ms));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay_ms));
                continue;
            }
            log::warnf("harness", {}, "cell %s/%s/%s failed: %s",
                       system.c_str(), algo::algorithmName(algorithm).c_str(),
                       dataset.c_str(), e.what());
            RunRecord r;
            r.system = system;
            r.algorithm = algo::algorithmName(algorithm);
            r.dataset = dataset;
            r.status = errorCodeName(e.code());
            return r;
        }
    }
}

namespace
{

/**
 * Resolve the effective RunOptions of one run: the spec's overrides
 * first, the env-driven defaults (GDS_CELL_BUDGET & friends) for
 * anything it leaves unset, then the per-call hooks.
 */
core::RunOptions
cellRunOptions(const RunSpec &spec, const graph::Csr &g,
               const std::string &config_hash, const RunHooks &hooks)
{
    core::RunOptions options;
    options.source = spec.sourceIn(g);
    options.cycleBudget =
        spec.cycleBudget != 0 ? spec.cycleBudget : cellCycleBudget();
    options.wallBudgetSeconds = spec.wallBudgetSeconds >= 0.0
                                    ? spec.wallBudgetSeconds
                                    : cellWallBudgetSeconds();
    options.checkpoint =
        hooks.checkpoint
            ? *hooks.checkpoint
            : cellCheckpointOptions(algo::algorithmName(spec.algorithm),
                                    spec.dataset, config_hash);
    options.sampler = hooks.sampler;
    options.traceCounterInterval = hooks.traceCounterInterval;
    options.killAtCycle = hooks.killAtCycle;
    return options;
}

double
energyJoules(const core::GdsConfig &cfg, const core::RunResult &run)
{
    return energy::EnergyModel{}
        .gdsEnergy(cfg, run.cycles, run.memoryBytes)
        .totalJ();
}

double
energyJoules(const baseline::GraphicionadoConfig &cfg,
             const core::RunResult &run)
{
    return energy::EnergyModel{}
        .graphicionadoEnergy(cfg, run.cycles, run.memoryBytes)
        .totalJ();
}

/**
 * Build and simulate one cycle-level accelerator cell into @p r: the
 * sim/validate wall split, the watchdog status and the counters every
 * accelerator reports (Graphicionado's schedulingOps and updatesSkipped
 * are 0). Pricing the run is timed as validation.
 */
template <typename Accel, typename Config>
RunRecord
simulateCell(RunRecord r, const Config &cfg, const graph::Csr &g,
             const RunSpec &spec, const RunHooks &hooks)
{
    const auto algorithm = algo::makeAlgorithm(spec.algorithm);
    Accel accel(cfg, g, *algorithm);
    r.configHash = configHash(cfg);
    const core::RunOptions options =
        cellRunOptions(spec, g, r.configHash, hooks);
    core::RunResult result;
    {
        const ScopedWallTimer timer(r.wallSimSeconds);
        result = accel.run(options);
    }
    if (hooks.onFinish)
        hooks.onFinish(result, accel.statsGroup());

    double validate_seconds = 0.0;
    const ScopedWallTimer validate_timer(validate_seconds);
    if (!result.completed())
        r.status = errorCodeName(sim::runOutcomeError(result.report.outcome));
    r.iterations = result.iterations;
    r.seconds = static_cast<double>(result.cycles) * 1e-9;
    r.gteps = result.gteps();
    r.memoryBytes = static_cast<double>(result.memoryBytes);
    r.footprintBytes = static_cast<double>(result.footprintBytes);
    r.bandwidthUtilization = result.bandwidthUtilization;
    r.energyJoules = energyJoules(cfg, result);
    r.schedulingOps = static_cast<double>(result.schedulingOps);
    r.atomicStalls = static_cast<double>(result.atomicStalls);
    r.updatesSkipped = static_cast<double>(result.updatesSkipped);
    r.vertexUpdates = static_cast<double>(result.vertexUpdates);
    r.edgesProcessed = static_cast<double>(result.edgesProcessed);
    r.wallValidateSeconds = validate_timer.elapsedSeconds();
    return r;
}

/** The spec of one legacy run*() call. */
RunSpec
shimSpec(SystemId system, algo::AlgorithmId algorithm,
         const std::string &dataset, const CellPolicy *policy)
{
    RunSpec spec = policy ? *policy : RunSpec{};
    spec.system = system;
    spec.algorithm = algorithm;
    spec.dataset = dataset;
    return spec;
}

} // namespace

RunRecord
run(const RunSpec &spec, const graph::Csr &g, const RunHooks &hooks)
{
    RunRecord r;
    r.system = systemName(spec.system);
    r.algorithm = algo::algorithmName(spec.algorithm);
    r.dataset = spec.dataset;

    switch (spec.system) {
      case SystemId::GraphDynS:
        if (spec.variant != GdsVariant::Full)
            r.system += '-' + variantName(spec.variant);
        return simulateCell<core::GdsAccel>(std::move(r), spec.gdsConfig(),
                                            g, spec, hooks);
      case SystemId::Graphicionado: {
        baseline::GraphicionadoConfig cfg;
        cfg.maxIterations = spec.iterationLimit();
        return simulateCell<baseline::GraphicionadoAccel>(std::move(r), cfg,
                                                          g, spec, hooks);
      }
      case SystemId::Gunrock: {
        baseline::GunrockConfig cfg;
        cfg.maxIterations = spec.iterationLimit();
        const auto algorithm = algo::makeAlgorithm(spec.algorithm);
        baseline::GunrockSim gpu(cfg, g, *algorithm);
        const VertexId source = spec.sourceIn(g);
        baseline::GunrockResult result;
        {
            const ScopedWallTimer timer(r.wallSimSeconds);
            result = gpu.run(source);
        }
        r.configHash = configHash(cfg);
        r.iterations = result.iterations;
        r.seconds = result.seconds;
        r.gteps = result.gteps();
        r.memoryBytes = static_cast<double>(result.memoryBytes);
        r.footprintBytes = static_cast<double>(result.footprintBytes);
        r.bandwidthUtilization = result.bandwidthUtilization;
        r.energyJoules = result.energyJoules;
        r.edgesProcessed = static_cast<double>(result.edgesProcessed);
        return r;
      }
    }
    panic("bad system id");
}

RunRecord
runGds(algo::AlgorithmId algorithm, const std::string &dataset,
       const graph::Csr &g, GdsVariant variant,
       const core::GdsConfig *base, const CellPolicy *policy)
{
    RunSpec spec = shimSpec(SystemId::GraphDynS, algorithm, dataset, policy);
    spec.variant = variant;
    if (base)
        spec.gds = *base;
    return run(spec, g);
}

RunRecord
runGraphicionado(algo::AlgorithmId algorithm, const std::string &dataset,
                 const graph::Csr &g, const CellPolicy *policy)
{
    return run(shimSpec(SystemId::Graphicionado, algorithm, dataset, policy),
               g);
}

RunRecord
runGunrock(algo::AlgorithmId algorithm, const std::string &dataset,
           const graph::Csr &g)
{
    return run(shimSpec(SystemId::Gunrock, algorithm, dataset, nullptr), g);
}

std::vector<MatrixCell>
matrixCells()
{
    std::vector<MatrixCell> cells;
    for (const algo::AlgorithmId id : algo::allAlgorithms) {
        const bool weighted = algo::makeAlgorithm(id)->usesWeights();
        for (const auto &data : graph::realWorldDatasets()) {
            for (const SystemId sys :
                 {SystemId::GraphDynS, SystemId::Graphicionado,
                  SystemId::Gunrock})
                cells.push_back({{sys, id, data.name}, &data, weighted});
        }
    }
    return cells;
}

std::vector<std::size_t>
matrixDispatchOrder(const std::vector<MatrixCell> &cells,
                    unsigned scale_divisor)
{
    const auto before = [&](std::size_t a, std::size_t b) {
        const MatrixCell &x = cells[a];
        const MatrixCell &y = cells[b];
        const std::uint64_t x_edges = x.data->scaledEdges(scale_divisor);
        const std::uint64_t y_edges = y.data->scaledEdges(scale_divisor);
        if (x_edges != y_edges)
            return x_edges > y_edges;
        // The name only breaks edge-count ties (tiny scales clamp every
        // graph to 256 edges), keeping each graph's run contiguous.
        if (x.data->name != y.data->name)
            return x.data->name < y.data->name;
        if (x.weighted != y.weighted)
            return !x.weighted;
        return x.spec.algorithm > y.spec.algorithm;
    };
    // Stable, so the systems of one (graph, algorithm) keep their order.
    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), before);
    return order;
}

std::vector<RunRecord>
evaluationMatrix(ResultCache &cache)
{
    // Each cell writes into its canonical slot, so the returned records
    // are identical whatever the dispatch order, worker count or
    // completion interleaving.
    const std::vector<MatrixCell> cells = matrixCells();
    const std::vector<std::size_t> order =
        matrixDispatchOrder(cells, graph::datasetScaleDivisor());

    DatasetPool pool;
    for (const MatrixCell &c : cells)
        pool.expect(c.data->name, c.weighted);

    std::vector<RunRecord> records(cells.size());
    std::vector<std::uint8_t> servedFromCache(cells.size(), 0);
    std::atomic<std::size_t> done{0};
    std::atomic<unsigned> running{0};

    auto run_one = [&](std::size_t i) {
        const MatrixCell &c = cells[i];
        const std::string system = systemName(c.spec.system);
        const std::string &dataset = c.data->name;
        const std::string key = c.spec.key();
        servedFromCache[i] = cache.lookup(key).has_value() ? 1 : 0;
        running.fetch_add(1, std::memory_order_relaxed);
        // runCell degrades a failed cell (bad config, corrupt dataset,
        // watchdog verdict) into a status!="ok" record, so one broken
        // cell never kills a whole figure regeneration.
        records[i] = cache.getOrRun(key, [&] {
            log::infof("harness", {}, "%s %s %s", system.c_str(),
                       algo::algorithmName(c.spec.algorithm).c_str(),
                       dataset.c_str());
            return runCell(system, c.spec.algorithm, dataset, [&] {
                double load_seconds = 0.0;
                DatasetPool::GraphPtr g;
                {
                    const ScopedWallTimer timer(load_seconds);
                    g = pool.get(dataset, c.weighted);
                }
                RunRecord r = run(c.spec, *g);
                r.wallLoadSeconds = load_seconds;
                return r;
            });
        });
        pool.release(dataset, c.weighted);
        const std::size_t completed =
            done.fetch_add(1, std::memory_order_relaxed) + 1;
        const unsigned active =
            running.fetch_sub(1, std::memory_order_relaxed) - 1;
        log::infof("harness", {}, "%zu/%zu cells, %u running", completed,
                   cells.size(), active);
    };

    common::parallelFor(order.size(), common::jobCount(),
                        [&](std::size_t k) { run_one(order[k]); });

    // Provenance manifest: one entry per cell, in the canonical order
    // (the records vector), so manifests diff cleanly across runs.
    Manifest manifest;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const RunRecord &r = records[i];
        ManifestCell entry;
        entry.key = cells[i].spec.key();
        entry.system = r.system;
        entry.algorithm = r.algorithm;
        entry.dataset = r.dataset;
        entry.seed = cells[i].data->seed;
        entry.configHash = r.configHash;
        entry.outcome = r.status;
        entry.cached = servedFromCache[i] != 0;
        entry.simulatedSeconds = r.seconds;
        entry.wallLoadSeconds = r.wallLoadSeconds;
        entry.wallSimSeconds = r.wallSimSeconds;
        entry.wallValidateSeconds = r.wallValidateSeconds;
        entry.peakRssBytes =
            static_cast<double>(common::peakRssBytes());
        manifest.add(std::move(entry));
    }
    manifest.writeFile("manifest.json");
    return records;
}

const RunRecord &
findRecord(const std::vector<RunRecord> &records, const std::string &system,
           const std::string &algorithm, const std::string &dataset)
{
    for (const RunRecord &r : records) {
        if (r.system == system && r.algorithm == algorithm &&
            r.dataset == dataset)
            return r;
    }
    fatal("no record for %s/%s/%s", system.c_str(), algorithm.c_str(),
          dataset.c_str());
}

const RunRecord *
tryFindRecord(const std::vector<RunRecord> &records,
              const std::string &system, const std::string &algorithm,
              const std::string &dataset)
{
    for (const RunRecord &r : records) {
        if (r.system == system && r.algorithm == algorithm &&
            r.dataset == dataset)
            return r.ok() ? &r : nullptr;
    }
    return nullptr;
}

// ---------------------------------------------------------------------
// Result cache.
// ---------------------------------------------------------------------

namespace
{
constexpr const char *cacheFile = "gds_bench_cache_v1.csv";
/** First line of the file; bumped whenever the column layout changes. */
constexpr const char *cacheFormatLine = "# gds-bench-cache format 3";
constexpr const char *cacheColumnsLine =
    "# key,system,algorithm,dataset,status,iterations,seconds,"
    "gteps,memoryBytes,footprintBytes,bandwidthUtilization,"
    "energyJoules,schedulingOps,atomicStalls,updatesSkipped,"
    "vertexUpdates,edgesProcessed,configHash,wallLoadSeconds,"
    "wallSimSeconds,wallValidateSeconds";

/** The cache line format has no quoting, so a field containing the
 *  delimiter (or a line break / control character) would re-parse with
 *  silently shifted columns; such fields are refused at store() time. */
bool
cacheFieldOk(const std::string &field)
{
    for (const unsigned char c : field) {
        if (c == ',' || c < 0x20)
            return false;
    }
    return true;
}

void
writeRecordLine(std::ostream &out, const std::string &key,
                const RunRecord &r)
{
    out.precision(17);
    out << key << ',' << r.system << ',' << r.algorithm << ','
        << r.dataset << ',' << r.status << ',' << r.iterations << ','
        << r.seconds << ',' << r.gteps << ',' << r.memoryBytes << ','
        << r.footprintBytes << ',' << r.bandwidthUtilization << ','
        << r.energyJoules << ',' << r.schedulingOps << ','
        << r.atomicStalls << ',' << r.updatesSkipped << ','
        << r.vertexUpdates << ',' << r.edgesProcessed << ','
        << r.configHash << ',' << r.wallLoadSeconds << ','
        << r.wallSimSeconds << ',' << r.wallValidateSeconds << '\n';
}

} // namespace

std::string
cellKey(const std::string &system_tag, algo::AlgorithmId id,
        const std::string &dataset)
{
    return system_tag + "|" + algo::algorithmName(id) + "|" + dataset +
           "|s" + std::to_string(graph::datasetScaleDivisor());
}

ResultCache::ResultCache()
{
    load();
}

ResultCache::~ResultCache()
{
    const std::lock_guard<std::mutex> lock(mu);
    if (appended == 0)
        return; // nothing new: the on-disk file is already canonical
    if (journal.is_open())
        journal.close();
    compactLocked();
}

std::optional<RunRecord>
ResultCache::lookup(const std::string &key) const
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto it = entries.find(key);
    if (it == entries.end())
        return std::nullopt;
    return it->second;
}

void
ResultCache::store(const std::string &key, const RunRecord &record)
{
    if (!cacheFieldOk(key) || !cacheFieldOk(record.system) ||
        !cacheFieldOk(record.algorithm) || !cacheFieldOk(record.dataset) ||
        !cacheFieldOk(record.status) || !cacheFieldOk(record.configHash)) {
        throw ConfigError(
            "result-cache fields must not contain commas or control "
            "characters: key '" + key + "', cell " + record.system + "/" +
            record.algorithm + "/" + record.dataset);
    }
    const std::lock_guard<std::mutex> lock(mu);
    entries[key] = record;
    appendLocked(key, record);
}

void
ResultCache::appendLocked(const std::string &key, const RunRecord &record)
{
    if (journal_failed)
        return;
    if (!journal.is_open()) {
        journal.open(cacheFile,
                     needs_header ? std::ios::trunc : std::ios::app);
        if (journal && needs_header) {
            journal << cacheFormatLine << '\n'
                    << cacheColumnsLine << '\n';
            needs_header = false;
        }
    }
    if (journal.is_open())
        writeRecordLine(journal, key, record);
    // Flush eagerly so interrupted bench runs keep their progress.
    if (!journal.is_open() || !journal.flush()) {
        log::warnf("harness", {},
                   "cannot append to result cache '%s'; results from this run "
                   "will not be persisted", cacheFile);
        journal_failed = true;
        return;
    }
    // ...and fsync so a power loss (not just a SIGKILL) can't take an
    // already-reported cell result with it. Cells cost seconds to
    // minutes; one fsync per cell is noise.
    fsyncFile(cacheFile);
    ++appended;
}

void
ResultCache::load()
{
    std::ifstream in(cacheFile);
    if (!in) {
        needs_header = true;
        return;
    }
    std::string line;
    if (!std::getline(in, line) || line != cacheFormatLine) {
        log::warnf("harness", {},
                   "ignoring result cache '%s': unrecognized format (expected "
                   "\"%s\"); it will be rebuilt", cacheFile, cacheFormatLine);
        needs_header = true;
        return;
    }
    std::uint64_t line_number = 1;
    while (std::getline(in, line)) {
        ++line_number;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream iss(line);
        std::string key;
        RunRecord r;
        bool parsed = std::getline(iss, key, ',') && !key.empty() &&
                      std::getline(iss, r.system, ',') &&
                      std::getline(iss, r.algorithm, ',') &&
                      std::getline(iss, r.dataset, ',') &&
                      std::getline(iss, r.status, ',');
        if (parsed) {
            iss >> r.iterations;
            iss.ignore(1) >> r.seconds;
            iss.ignore(1) >> r.gteps;
            iss.ignore(1) >> r.memoryBytes;
            iss.ignore(1) >> r.footprintBytes;
            iss.ignore(1) >> r.bandwidthUtilization;
            iss.ignore(1) >> r.energyJoules;
            iss.ignore(1) >> r.schedulingOps;
            iss.ignore(1) >> r.atomicStalls;
            iss.ignore(1) >> r.updatesSkipped;
            iss.ignore(1) >> r.vertexUpdates;
            iss.ignore(1) >> r.edgesProcessed;
            iss.ignore(1);
            parsed = static_cast<bool>(iss) &&
                     static_cast<bool>(std::getline(iss, r.configHash, ','));
            iss >> r.wallLoadSeconds;
            iss.ignore(1) >> r.wallSimSeconds;
            iss.ignore(1) >> r.wallValidateSeconds;
            parsed = parsed && static_cast<bool>(iss);
        }
        if (!parsed) {
            log::warnf("harness", {},
                       "skipping corrupt line %llu in result cache '%s'",
                       static_cast<unsigned long long>(line_number),
                       cacheFile);
            continue;
        }
        entries[key] = r;
    }
}

void
ResultCache::compactLocked()
{
    // Rewrite the journal once, deduplicated, via a temp file + durable
    // rename (fsync file, rename, fsync parent directory) so neither a
    // crash mid-write nor a power loss right after can truncate or
    // corrupt the existing cache.
    const std::string tmp_file = std::string(cacheFile) + ".tmp";
    {
        std::ofstream out(tmp_file);
        out << cacheFormatLine << '\n';
        out << cacheColumnsLine << '\n';
        for (const auto &[key, r] : entries)
            writeRecordLine(out, key, r);
        if (!out) {
            log::warnf("harness", {},
                       "cannot write result cache temp file '%s'",
                       tmp_file.c_str());
            return;
        }
    }
    if (!durableRename(tmp_file, cacheFile)) {
        std::error_code ec;
        std::filesystem::remove(tmp_file, ec);
    }
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

double
geometricMean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    std::size_t count = 0;
    for (const double v : values) {
        if (v > 0.0) {
            log_sum += std::log(v);
            ++count;
        }
    }
    return count == 0 ? 0.0
                      : std::exp(log_sum / static_cast<double>(count));
}

void
dumpRecordsJson(const std::vector<RunRecord> &records, std::ostream &os)
{
    os << '[';
    bool first = true;
    for (const RunRecord &r : records) {
        if (!first)
            os << ',';
        first = false;
        os << '{';
        auto str = [&](const char *name, const std::string &value,
                       bool comma = true) {
            stats::emitJsonString(os, name);
            os << ':';
            stats::emitJsonString(os, value);
            if (comma)
                os << ',';
        };
        auto num = [&](const char *name, double value, bool comma = true) {
            stats::emitJsonString(os, name);
            os << ':';
            stats::emitJsonNumber(os, value);
            if (comma)
                os << ',';
        };
        str("system", r.system);
        str("algorithm", r.algorithm);
        str("dataset", r.dataset);
        str("status", r.status);
        num("iterations", r.iterations);
        num("seconds", r.seconds);
        num("gteps", r.gteps);
        num("memoryBytes", r.memoryBytes);
        num("footprintBytes", r.footprintBytes);
        num("bandwidthUtilization", r.bandwidthUtilization);
        num("energyJoules", r.energyJoules);
        num("schedulingOps", r.schedulingOps);
        num("atomicStalls", r.atomicStalls);
        num("updatesSkipped", r.updatesSkipped);
        num("vertexUpdates", r.vertexUpdates);
        num("edgesProcessed", r.edgesProcessed);
        // Wall-clock fields are provenance, not simulation results: they
        // live in the manifest and cache journal, and including them here
        // would break the byte-identical-across-GDS_JOBS guarantee.
        str("configHash", r.configHash, false);
        os << '}';
    }
    os << "]\n";
}

Table::Table(std::vector<std::string> columns) : header(std::move(columns))
{}

void
Table::addRow(std::vector<std::string> cells)
{
    gds_assert(cells.size() == header.size(),
               "row has %zu cells, table has %zu columns", cells.size(),
               header.size());
    rows.push_back(std::move(cells));
}

void
Table::print() const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }
    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c)
            std::printf("%-*s  ", static_cast<int>(widths[c]),
                        row[c].c_str());
        std::printf("\n");
    };
    print_row(header);
    std::string rule;
    for (std::size_t c = 0; c < header.size(); ++c)
        rule += std::string(widths[c], '-') + "  ";
    std::printf("%s\n", rule.c_str());
    for (const auto &row : rows)
        print_row(row);
}

std::string
Table::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

} // namespace gds::harness
