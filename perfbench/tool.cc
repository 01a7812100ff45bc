/**
 * @file
 * perfbench_tool: makes the benchmark's calls into the repository's
 * public library. run.py spawns one subcommand per measured step, so each
 * step runs in a process of its own (its peak RSS is the process's) and
 * reports one JSON object on stdout. Every library call it makes is
 * wrapped in a span (name, track, start/end in CLOCK_MONOTONIC
 * microseconds, parent index) that run.py merges into the run's trace.
 * With --no-spans before the subcommand a span only times its call: its
 * name and track are dropped and no span is printed, as for the
 * untraced pass.
 *
 * Subcommands (all read GDS_SCALE / GDS_JOBS from the environment and
 * work in the current directory, like the benches):
 *   provenance                 compiler, build type, flags, sanitizer
 *   gen-datasets NAME...       makeDataset + saveBinaryAtomic, both the
 *                              weighted and the unweighted variant
 *   matrix [--warm]            harness::evaluationMatrix; cold refuses an
 *                              existing result cache, warm requires one
 *   validate NAME...           direct GdsAccel / GraphicionadoAccel runs
 *                              of every algorithm, checked by
 *                              algo::validate
 *   sources NAME...            the kMixSources vertices of highest out-degree
 *                              in both variants (job inputs)
 *   direct-runs FILE           harness runs of the submit lines in FILE
 *   cache-micro --matrix|FILE  ResultCache lookup and store timings
 *   prepare-gen NAME           makeDataset + saveBinaryAtomic, unweighted
 *   prepare-load NAME          loadBinaryMapped + full neighbour scan
 *   write-trace IN OUT         spans JSON -> Perfetto JSON via obs::Tracer
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/validate.hh"
#include "baseline/graphicionado.hh"
#include "common/jsonio.hh"
#include "common/parallel.hh"
#include "common/rss.hh"
#include "core/gds_accel.hh"
#include "graph/datasets.hh"
#include "graph/loader.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"
#include "obs/trace.hh"
#include "stats/json.hh"
#include "svc/protocol.hh"

using namespace gds;

namespace
{

double
nowMicros()
{
    // steady_clock is CLOCK_MONOTONIC on Linux, the clock run.py's
    // time.monotonic() reads, so spans of all processes share a timebase.
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Spans of one subcommand; safe to record from worker threads. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string track;
        double startUs = 0.0;
        double endUs = 0.0;
        long parent = -1; ///< index into the log, -1 for a root
    };

    /** False: keep only the start times end() needs, print no span. */
    bool recording = true;

    /** Open a span; returns its index for end() and child spans. */
    long
    begin(std::string name, std::string track, long parent = -1)
    {
        const std::lock_guard<std::mutex> lock(mu);
        if (!recording) {
            name.clear();
            track.clear();
        }
        spans.push_back({std::move(name), std::move(track), nowMicros(),
                         0.0, parent});
        return static_cast<long>(spans.size()) - 1;
    }

    /** Close span @p id; returns its duration in seconds. */
    double
    end(long id)
    {
        const std::lock_guard<std::mutex> lock(mu);
        Span &s = spans[static_cast<std::size_t>(id)];
        s.endUs = nowMicros();
        return (s.endUs - s.startUs) * 1e-6;
    }

    void
    write(std::ostream &os) const
    {
        const std::lock_guard<std::mutex> lock(mu);
        os << "\"spans\":[";
        for (std::size_t i = 0; recording && i < spans.size(); ++i) {
            const Span &s = spans[i];
            os << (i ? "," : "") << "{\"name\":";
            stats::emitJsonString(os, s.name);
            os << ",\"track\":";
            stats::emitJsonString(os, s.track);
            os << ",\"start_us\":" << s.startUs << ",\"end_us\":" << s.endUs
               << ",\"parent\":" << s.parent << '}';
        }
        os << ']';
    }

  private:
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** The JSON result line every subcommand prints: fields + spans. */
class Output
{
  public:
    Output() { os.precision(17); }

    void
    num(const char *name, double value)
    {
        key(name);
        stats::emitJsonNumber(os, value);
    }

    void
    str(const char *name, const std::string &value)
    {
        key(name);
        stats::emitJsonString(os, value);
    }

    /** Append an already-serialized JSON value. */
    void
    raw(const char *name, const std::string &json)
    {
        key(name);
        os << json;
    }

    SpanLog spans;

    void
    print()
    {
        os << (first ? "" : ",");
        spans.write(os);
        std::cout << '{' << os.str() << "}\n";
    }

    static std::ostringstream
    stream()
    {
        std::ostringstream s;
        s.precision(17);
        return s;
    }

  private:
    void
    key(const char *name)
    {
        os << (first ? "" : ",");
        first = false;
        stats::emitJsonString(os, name);
        os << ':';
    }

    std::ostringstream os;
    bool first = true;
};

double
peakRssMb()
{
    return static_cast<double>(common::peakRssBytes()) / (1024.0 * 1024.0);
}

/**
 * One matrix record with every field at full precision (the daemon's
 * recordJson prints six digits), so the golden table compares exactly.
 */
std::string
recordFull(const harness::RunRecord &r)
{
    std::ostringstream os = Output::stream();
    auto str = [&](const char *name, const std::string &value) {
        stats::emitJsonString(os, name);
        os << ':';
        stats::emitJsonString(os, value);
        os << ',';
    };
    os << '{';
    str("system", r.system);
    str("algorithm", r.algorithm);
    str("dataset", r.dataset);
    str("status", r.status);
    str("configHash", r.configHash);
    os << "\"iterations\":" << r.iterations << ",\"seconds\":" << r.seconds
       << ",\"memoryBytes\":" << r.memoryBytes
       << ",\"bandwidthUtilization\":" << r.bandwidthUtilization
       << ",\"energyJoules\":" << r.energyJoules
       << ",\"edgesProcessed\":" << r.edgesProcessed
       << ",\"wallLoadSeconds\":" << r.wallLoadSeconds
       << ",\"wallSimSeconds\":" << r.wallSimSeconds
       << ",\"wallValidateSeconds\":" << r.wallValidateSeconds << '}';
    return os.str();
}

bool
sanitizerBuild()
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    return std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
           std::string::npos;
#endif
}

int
cmdProvenance(Output &out)
{
    out.str("compiler", PERFBENCH_COMPILER);
    out.str("compiler_version", PERFBENCH_COMPILER_VERSION);
    out.str("build_type", PERFBENCH_BUILD_TYPE);
    out.str("cxx_flags", PERFBENCH_CXX_FLAGS);
    out.raw("sanitizer", sanitizerBuild() ? "true" : "false");
    out.str("build_git_sha", harness::buildGitSha());
    out.num("hardware_concurrency", std::thread::hardware_concurrency());
    out.num("gds_jobs", common::jobCount());
    out.num("gds_scale", graph::datasetScaleDivisor());
    return 0;
}

int
cmdGenDatasets(Output &out, const std::vector<std::string> &names)
{
    const unsigned scale = graph::datasetScaleDivisor();
    double edges = 0.0, generate_s = 0.0, save_s = 0.0;
    for (const std::string &name : names) {
        for (const bool weighted : {false, true}) {
            const std::string track = name + (weighted ? "/w" : "/u");
            const long gen = out.spans.begin("graph.makeDataset", track);
            const graph::Csr g = graph::makeDataset(
                graph::datasetByName(name), scale, weighted);
            generate_s += out.spans.end(gen);
            const long save =
                out.spans.begin("graph.saveBinaryAtomic", track);
            graph::saveBinaryAtomic(
                g, harness::datasetCachePath(name, scale, weighted));
            save_s += out.spans.end(save);
            edges += static_cast<double>(g.numEdges());
        }
    }
    out.num("edges", edges);
    out.num("generate_s", generate_s);
    out.num("save_s", save_s);
    return 0;
}

constexpr const char *resultCacheFile = "gds_bench_cache_v1.csv";

int
cmdMatrix(Output &out, bool warm)
{
    // A stale cache turns the cold matrix into a warm one: refuse it.
    if (std::filesystem::exists(resultCacheFile) != warm) {
        std::fprintf(stderr, "perfbench_tool: %s matrix needs %s %s\n",
                     warm ? "warm" : "cold", warm ? "an existing" : "no",
                     resultCacheFile);
        return 2;
    }
    double wall = 0.0;
    std::vector<harness::RunRecord> records;
    {
        harness::ResultCache cache;
        const long span = out.spans.begin(
            warm ? "harness.evaluationMatrix.warm"
                 : "harness.evaluationMatrix",
            "matrix");
        records = harness::evaluationMatrix(cache);
        wall = out.spans.end(span);
    }
    out.num("wall_s", wall);
    out.num("jobs", common::jobCount());
    out.num("peak_rss_mb", peakRssMb());
    std::string list = "[";
    for (std::size_t i = 0; i < records.size(); ++i)
        list += (i ? "," : "") + recordFull(records[i]);
    out.raw("records", list + "]");
    return 0;
}

/** The unweighted and weighted variants of @p names from the cache. */
std::map<std::string, graph::Csr>
loadVariants(const std::vector<std::string> &names, SpanLog &spans)
{
    std::map<std::string, graph::Csr> graphs;
    for (const std::string &name : names) {
        for (const bool weighted : {false, true}) {
            const std::string key = name + (weighted ? "/w" : "/u");
            const long span = spans.begin("harness.loadDataset", key);
            graphs.emplace(key, harness::loadDataset(name, weighted));
            spans.end(span);
        }
    }
    return graphs;
}

int
cmdValidate(Output &out, const std::vector<std::string> &names)
{
    const auto graphs = loadVariants(names, out.spans);

    struct Cell
    {
        bool gds;
        algo::AlgorithmId id;
        std::string dataset;
        std::string line;
    };
    std::vector<Cell> cells;
    for (const std::string &name : names)
        for (const algo::AlgorithmId id : algo::allAlgorithms)
            for (const bool gds : {true, false})
                cells.push_back({gds, id, name, {}});

    common::parallelFor(cells.size(), common::jobCount(),
                        [&](std::size_t i) {
        Cell &c = cells[i];
        auto a = algo::makeAlgorithm(c.id);
        const graph::Csr &g = graphs.at(
            c.dataset + (a->usesWeights() ? "/w" : "/u"));
        const std::string track = std::string(c.gds ? "GraphDynS" :
                                               "Graphicionado") + "/" +
                                  algo::algorithmName(c.id) + "/" +
                                  c.dataset;
        core::RunOptions options;
        options.source = harness::sourceFor(c.id, g);
        options.cycleBudget = harness::cellCycleBudget();
        const long cell = out.spans.begin("validate.cell", track);
        core::RunResult run;
        double sim_s = 0.0;
        if (c.gds) {
            core::GdsConfig cfg;
            cfg.maxIterations = harness::iterationCap(c.id);
            core::GdsAccel accel(cfg, g, *a);
            const long span =
                out.spans.begin("core.GdsAccel.run", track, cell);
            run = accel.run(options);
            sim_s = out.spans.end(span);
        } else {
            baseline::GraphicionadoConfig cfg;
            cfg.maxIterations = harness::iterationCap(c.id);
            baseline::GraphicionadoAccel accel(cfg, g, *a);
            const long span = out.spans.begin(
                "baseline.GraphicionadoAccel.run", track, cell);
            run = accel.run(options);
            sim_s = out.spans.end(span);
        }
        const long vspan = out.spans.begin("algo.validate", track, cell);
        const algo::ValidationResult valid =
            run.completed()
                ? algo::validate(c.id, g, options.source, run.properties)
                : algo::ValidationResult::fail(run.report.summary());
        const double validate_s = out.spans.end(vspan);
        out.spans.end(cell);

        std::ostringstream os = Output::stream();
        os << "{\"system\":\"" << (c.gds ? "GraphDynS" : "Graphicionado")
           << "\",\"algorithm\":\"" << algo::algorithmName(c.id)
           << "\",\"dataset\":\"" << c.dataset
           << "\",\"completed\":" << (run.completed() ? "true" : "false")
           << ",\"valid\":" << (valid.valid ? "true" : "false")
           << ",\"message\":";
        stats::emitJsonString(os, valid.message);
        os << ",\"cycles\":" << run.cycles
           << ",\"iterations\":" << run.iterations
           << ",\"memory_bytes\":" << run.memoryBytes
           << ",\"stepped_cycles\":" << run.report.steppedCycles
           << ",\"skipped_cycles\":" << run.report.skippedCycles
           << ",\"skip_windows\":" << run.report.skipWindows
           << ",\"sim_s\":" << sim_s << ",\"validate_s\":" << validate_s
           << '}';
        c.line = os.str();
    });

    std::string list = "[";
    for (std::size_t i = 0; i < cells.size(); ++i)
        list += (i ? "," : "") + cells[i].line;
    out.raw("runs", list + "]");
    return 0;
}

// simd-mix sources: the vertices of highest out-degree. From them a job
// traverses the bulk of the graph, so its run time depends mostly on its
// (system, algorithm, dataset) and little on the seeded source.
constexpr std::size_t kMixSources = 64;

int
cmdSources(Output &out, const std::vector<std::string> &names)
{
    const auto graphs = loadVariants(names, out.spans);
    std::string obj = "{";
    for (std::size_t n = 0; n < names.size(); ++n) {
        const graph::Csr &u = graphs.at(names[n] + "/u");
        const graph::Csr &w = graphs.at(names[n] + "/w");
        std::vector<std::pair<std::uint64_t, VertexId>> ranked;
        for (VertexId v = 0; v < u.numVertices(); ++v) {
            const std::uint64_t d = std::min<std::uint64_t>(u.outDegree(v),
                                                            w.outDegree(v));
            if (d > 0)
                ranked.emplace_back(d, v);
        }
        std::stable_sort(ranked.begin(), ranked.end(),
                         [](const auto &a, const auto &b) {
                             return a.first > b.first;
                         });
        ranked.resize(std::min<std::size_t>(ranked.size(), kMixSources));
        obj += (n ? ",\"" : "\"") + names[n] + "\":[";
        for (std::size_t i = 0; i < ranked.size(); ++i)
            obj += (i ? "," : "") + std::to_string(ranked[i].second);
        obj += ']';
    }
    out.raw("sources", obj + "}");
    return 0;
}

/** Submit lines of a JSON-lines file, parsed by the daemon's parser. */
std::vector<svc::JobSpec>
readSpecs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot read job file '" + path + "'");
    std::vector<svc::JobSpec> specs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        auto parsed = svc::parseRequest(line);
        if (!parsed.ok() || parsed.value().op != svc::RequestOp::Submit)
            throw ConfigError("bad submit line '" + line + "'");
        specs.push_back(parsed.value().spec);
    }
    return specs;
}

int
cmdDirectRuns(Output &out, const std::string &path)
{
    const std::vector<svc::JobSpec> specs = readSpecs(path);
    std::vector<std::string> names;
    for (const svc::JobSpec &s : specs)
        if (std::find(names.begin(), names.end(), s.dataset) == names.end())
            names.push_back(s.dataset);
    const auto graphs = loadVariants(names, out.spans);

    // The same policy fields the daemon derives from a request (budgets,
    // source, iteration cap), so the records must match field for field.
    std::vector<std::string> lines(specs.size());
    common::parallelFor(specs.size(), common::jobCount(),
                        [&](std::size_t i) {
        const svc::JobSpec &spec = specs[i];
        const bool weighted =
            algo::makeAlgorithm(spec.algorithm)->usesWeights();
        const graph::Csr &g =
            graphs.at(spec.dataset + (weighted ? "/w" : "/u"));
        harness::CellPolicy policy;
        policy.cycleBudget = spec.cycleBudget;
        policy.wallBudgetSeconds = spec.wallBudgetSeconds;
        policy.source = spec.source;
        policy.iterations = spec.iterations;
        const std::string system = harness::systemName(spec.system);
        const long span = out.spans.begin("harness.runCell",
                                          "direct/" + std::to_string(i));
        const harness::RunRecord r = harness::runCell(
            system, spec.algorithm, spec.dataset, [&] {
                switch (spec.system) {
                  case harness::SystemId::GraphDynS:
                    return harness::runGds(spec.algorithm, spec.dataset, g,
                                           harness::GdsVariant::Full,
                                           nullptr, &policy);
                  case harness::SystemId::Graphicionado:
                    return harness::runGraphicionado(
                        spec.algorithm, spec.dataset, g, &policy);
                  case harness::SystemId::Gunrock:
                    return harness::runGunrock(spec.algorithm,
                                               spec.dataset, g);
                }
                throw ConfigError("bad system");
            });
        out.spans.end(span);
        lines[i] = svc::recordJson(r);
    });
    std::string list = "[";
    for (std::size_t i = 0; i < lines.size(); ++i)
        list += (i ? "," : "") + lines[i];
    out.raw("records", list + "]");
    return 0;
}

/**
 * Per-operation ResultCache costs: look up every key in the populated
 * cache of the current directory, then store the found records into a
 * fresh cache (one journal append + fsync each) in a subdirectory.
 */
int
cmdCacheMicro(Output &out, const std::string &source)
{
    std::vector<std::string> keys;
    if (source == "--matrix") {
        for (const algo::AlgorithmId id : algo::allAlgorithms)
            for (const auto &spec : graph::realWorldDatasets())
                for (const char *tag : {"gds", "graphicionado", "gunrock"})
                    keys.push_back(harness::cellKey(tag, id, spec.name));
    } else {
        for (const svc::JobSpec &spec : readSpecs(source))
            keys.push_back(spec.key());
    }

    std::vector<harness::RunRecord> found;
    std::vector<double> lookup_s;
    {
        const long load = out.spans.begin("harness.ResultCache.load",
                                          "cache");
        const harness::ResultCache cache;
        out.spans.end(load);
        for (const std::string &key : keys) {
            const long span =
                out.spans.begin("harness.ResultCache.lookup", "cache");
            auto hit = cache.lookup(key);
            lookup_s.push_back(out.spans.end(span));
            if (!hit) {
                std::fprintf(stderr, "perfbench_tool: key '%s' missing\n",
                             key.c_str());
                return 2;
            }
            found.push_back(*hit);
        }
    }

    const std::filesystem::path home = std::filesystem::current_path();
    std::filesystem::create_directories("cache_micro");
    std::filesystem::current_path("cache_micro");
    std::vector<double> store_s;
    {
        harness::ResultCache fresh;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const long span =
                out.spans.begin("harness.ResultCache.store", "cache");
            fresh.store(keys[i], found[i]);
            store_s.push_back(out.spans.end(span));
        }
    }
    std::filesystem::current_path(home);

    auto list = [](const std::vector<double> &v) {
        std::ostringstream os = Output::stream();
        os << '[';
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << v[i];
        os << ']';
        return os.str();
    };
    out.raw("lookup_s", list(lookup_s));
    out.raw("store_s", list(store_s));
    return 0;
}

int
cmdPrepareGen(Output &out, const std::string &name)
{
    const unsigned scale = graph::datasetScaleDivisor();
    const long gen = out.spans.begin("graph.makeDataset", name);
    graph::Csr g =
        graph::makeDataset(graph::datasetByName(name), scale, false);
    const double generate_s = out.spans.end(gen);
    const long save = out.spans.begin("graph.saveBinaryAtomic", name);
    graph::saveBinaryAtomic(g,
                            harness::datasetCachePath(name, scale, false));
    const double save_s = out.spans.end(save);
    out.num("generate_s", generate_s);
    out.num("save_s", save_s);
    out.num("vertices", g.numVertices());
    out.num("edges", static_cast<double>(g.numEdges()));
    out.num("peak_rss_mb", peakRssMb());
    return 0;
}

int
cmdPrepareLoad(Output &out, const std::string &name)
{
    const std::string path = harness::datasetCachePath(
        name, graph::datasetScaleDivisor(), false);
    const long load = out.spans.begin("graph.loadBinaryMapped", name);
    const graph::Csr g = graph::loadBinaryMapped(path);
    const double load_s = out.spans.end(load);

    // Touch every page the way a simulation would: the offset array per
    // vertex, the neighbour array per edge (as bench_dataset does).
    const long scan = out.spans.begin("graph.scan", name);
    const graph::DegreeStats ds = g.degreeStats();
    std::uint64_t checksum = 0;
    for (const VertexId dst : g.neighborArray())
        checksum += dst;
    const double scan_s = out.spans.end(scan);

    out.num("load_s", load_s);
    out.num("scan_s", scan_s);
    out.str("checksum", std::to_string(checksum));
    out.num("max_degree", static_cast<double>(ds.maxDegree));
    out.num("vertices", g.numVertices());
    out.num("edges", static_cast<double>(g.numEdges()));
    out.num("mapped_mb",
            static_cast<double>(g.mappedBytes()) / (1024.0 * 1024.0));
    out.num("heap_mb",
            static_cast<double>(g.heapBytes()) / (1024.0 * 1024.0));
    out.num("peak_rss_mb", peakRssMb());
    return 0;
}

/**
 * Render run.py's merged spans through the repository's Perfetto writer.
 * Input: {"spans":[{"name","track","start_us","end_us"}...]}, each
 * track's spans properly nested. Timestamps become microseconds since
 * the earliest span.
 */
int
cmdWriteTrace(const std::string &in_path, const std::string &out_path)
{
    std::ifstream in(in_path);
    std::stringstream text;
    text << in.rdbuf();
    auto parsed = common::parseJson(text.str());
    if (!parsed.ok() || !parsed.value().find("spans")) {
        std::fprintf(stderr, "perfbench_tool: bad span file '%s'\n",
                     in_path.c_str());
        return 2;
    }
    struct Span
    {
        std::string name, track;
        double start, end;
    };
    std::vector<Span> spans;
    double origin = 0.0;
    for (const common::JsonValue &v :
         parsed.value().find("spans")->asArray()) {
        spans.push_back({v.find("name")->asString(),
                         v.find("track")->asString(),
                         v.find("start_us")->asNumber(),
                         v.find("end_us")->asNumber()});
        origin = spans.size() == 1 ? spans.back().start
                                   : std::min(origin, spans.back().start);
    }
    // Outer spans first at equal starts, so children nest inside.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span &a, const Span &b) {
                         return a.start != b.start ? a.start < b.start
                                                   : a.end > b.end;
                     });
    auto stamp = [&](double us) {
        return static_cast<Cycle>(std::max(us - origin, 0.0));
    };
    obs::Tracer tracer("perfbench");
    std::map<std::string, std::vector<double>> open; // track -> ends
    for (const Span &s : spans) {
        const obs::TrackId track = tracer.track(s.track);
        std::vector<double> &stack = open[s.track];
        while (!stack.empty() && stack.back() <= s.start) {
            tracer.end(track, stamp(stack.back()));
            stack.pop_back();
        }
        // A child never outlives its parent on the same track.
        tracer.begin(track, s.name, stamp(s.start));
        stack.push_back(stack.empty() ? s.end
                                      : std::min(s.end, stack.back()));
    }
    for (auto &[name, stack] : open) {
        const obs::TrackId track = tracer.track(name);
        while (!stack.empty()) {
            tracer.end(track, stamp(stack.back()));
            stack.pop_back();
        }
    }
    return tracer.writeFile(out_path) ? 0 : 1;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_tool [--no-spans] provenance "
                 "| gen-datasets NAME... "
                 "| matrix [--warm]\n"
                 "       | validate NAME... | sources NAME... | "
                 "direct-runs FILE\n"
                 "       | cache-micro --matrix|FILE | prepare-gen NAME | "
                 "prepare-load NAME\n"
                 "       | write-trace IN OUT\n");
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    Output out;
    int argi = 1;
    if (argc > 1 && std::string(argv[1]) == "--no-spans") {
        out.spans.recording = false;
        ++argi;
    }
    if (argc <= argi)
        usage();
    const std::string cmd = argv[argi];
    const std::vector<std::string> args(argv + argi + 1, argv + argc);
    try {
        int rc = 0;
        if (cmd == "provenance" && args.empty())
            rc = cmdProvenance(out);
        else if (cmd == "gen-datasets" && !args.empty())
            rc = cmdGenDatasets(out, args);
        else if (cmd == "matrix" && args.size() <= 1)
            rc = cmdMatrix(out, !args.empty() && args[0] == "--warm");
        else if (cmd == "validate" && !args.empty())
            rc = cmdValidate(out, args);
        else if (cmd == "sources" && !args.empty())
            rc = cmdSources(out, args);
        else if (cmd == "direct-runs" && args.size() == 1)
            rc = cmdDirectRuns(out, args[0]);
        else if (cmd == "cache-micro" && args.size() == 1)
            rc = cmdCacheMicro(out, args[0]);
        else if (cmd == "prepare-gen" && args.size() == 1)
            rc = cmdPrepareGen(out, args[0]);
        else if (cmd == "prepare-load" && args.size() == 1)
            rc = cmdPrepareLoad(out, args[0]);
        else if (cmd == "write-trace" && args.size() == 2)
            return cmdWriteTrace(args[0], args[1]);
        else
            usage();
        if (rc == 0)
            out.print();
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_tool %s: %s\n", cmd.c_str(),
                     e.what());
        return 1;
    }
}
