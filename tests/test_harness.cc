/**
 * @file
 * Tests for the experiment harness: variant configuration mapping,
 * iteration/source policies, the disk-backed result cache (round-trip,
 * persistence across instances), dataset caching, geometric means,
 * table formatting, RunSpec keys, the run-spec field table shared by
 * gds_sim, gds_cli and the daemon, and harness::run's hooks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"
#include "graph/generators.hh"
#include "span_eq.hh"
#include "harness/experiment.hh"
#include "harness/manifest.hh"

namespace gds::harness
{
namespace
{

/** Run tests in a scratch directory so cache files don't pollute CWD. */
class HarnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = std::filesystem::current_path();
        scratch = std::filesystem::temp_directory_path() /
                  ("gds_harness_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(scratch);
        std::filesystem::current_path(scratch);
    }

    void
    TearDown() override
    {
        std::filesystem::current_path(original);
        std::filesystem::remove_all(scratch);
    }

    std::filesystem::path original;
    std::filesystem::path scratch;
};

TEST(Harness, SystemNames)
{
    EXPECT_EQ(systemName(SystemId::GraphDynS), "GraphDynS");
    EXPECT_EQ(systemName(SystemId::Graphicionado), "Graphicionado");
    EXPECT_EQ(systemName(SystemId::Gunrock), "Gunrock");
}

TEST(Harness, VariantConfigurations)
{
    const core::GdsConfig wb =
        applyVariant(core::GdsConfig{}, GdsVariant::Wb);
    EXPECT_TRUE(wb.workloadBalance);
    EXPECT_FALSE(wb.exactPrefetch);
    EXPECT_FALSE(wb.zeroStallAtomics);
    EXPECT_FALSE(wb.updateScheduling);

    const core::GdsConfig we =
        applyVariant(core::GdsConfig{}, GdsVariant::We);
    EXPECT_TRUE(we.exactPrefetch);
    EXPECT_FALSE(we.zeroStallAtomics);

    const core::GdsConfig wea =
        applyVariant(core::GdsConfig{}, GdsVariant::Wea);
    EXPECT_TRUE(wea.zeroStallAtomics);
    EXPECT_FALSE(wea.updateScheduling);

    const core::GdsConfig full =
        applyVariant(core::GdsConfig{}, GdsVariant::Full);
    EXPECT_TRUE(full.workloadBalance && full.exactPrefetch &&
                full.zeroStallAtomics && full.updateScheduling);

    const core::GdsConfig no_wb =
        applyVariant(core::GdsConfig{}, GdsVariant::NoWb);
    EXPECT_FALSE(no_wb.workloadBalance);
    EXPECT_TRUE(no_wb.exactPrefetch);
}

TEST(Harness, IterationCapPolicy)
{
    EXPECT_EQ(iterationCap(algo::AlgorithmId::Pr), 10u);
    EXPECT_EQ(iterationCap(algo::AlgorithmId::Bfs), 1000u);
}

TEST(Harness, SourcePolicy)
{
    const auto g = graph::uniform(100, 1000, 3, true);
    EXPECT_EQ(sourceFor(algo::AlgorithmId::Bfs, g),
              algo::defaultSource(g));
    EXPECT_EQ(sourceFor(algo::AlgorithmId::Cc, g), 0u);
    EXPECT_EQ(sourceFor(algo::AlgorithmId::Pr, g), 0u);
}

TEST(Harness, GeometricMean)
{
    EXPECT_DOUBLE_EQ(geometricMean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geometricMean({8.0}), 8.0);
    EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    EXPECT_EQ(geometricMean({}), 0.0);
    // Non-positive values are ignored.
    EXPECT_DOUBLE_EQ(geometricMean({0.0, 4.0, 1.0}), 2.0);
}

TEST(Harness, TableNumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10.0, 0), "10");
}

TEST_F(HarnessTest, CacheRoundTripsRecords)
{
    RunRecord r;
    r.system = "GraphDynS";
    r.algorithm = "BFS";
    r.dataset = "FR";
    r.iterations = 7;
    r.seconds = 0.00123;
    r.gteps = 45.5;
    r.memoryBytes = 1e8;
    r.footprintBytes = 2e8;
    r.bandwidthUtilization = 0.56;
    r.energyJoules = 0.012;
    r.schedulingOps = 1000;
    r.atomicStalls = 5;
    r.updatesSkipped = 99;
    r.vertexUpdates = 1234;
    r.edgesProcessed = 5678;

    {
        ResultCache cache;
        cache.store("k1", r);
    }
    ResultCache reloaded;
    const auto found = reloaded.lookup("k1");
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->system, "GraphDynS");
    EXPECT_EQ(found->algorithm, "BFS");
    EXPECT_EQ(found->dataset, "FR");
    EXPECT_EQ(found->iterations, 7u);
    EXPECT_DOUBLE_EQ(found->seconds, 0.00123);
    EXPECT_DOUBLE_EQ(found->gteps, 45.5);
    EXPECT_DOUBLE_EQ(found->bandwidthUtilization, 0.56);
    EXPECT_DOUBLE_EQ(found->edgesProcessed, 5678);
}

TEST_F(HarnessTest, CacheMissReturnsNullopt)
{
    ResultCache cache;
    EXPECT_FALSE(cache.lookup("missing").has_value());
}

TEST_F(HarnessTest, GetOrRunComputesOnceThenCaches)
{
    ResultCache cache;
    int calls = 0;
    auto compute = [&] {
        ++calls;
        RunRecord r;
        r.system = "X";
        r.algorithm = "Y";
        r.dataset = "Z";
        r.gteps = 1.5;
        return r;
    };
    const auto first = cache.getOrRun("key", compute);
    const auto second = cache.getOrRun("key", compute);
    EXPECT_EQ(calls, 1);
    EXPECT_DOUBLE_EQ(first.gteps, second.gteps);
}

TEST_F(HarnessTest, CellKeyIncludesScale)
{
    const std::string key = cellKey("gds", algo::AlgorithmId::Bfs, "FR");
    EXPECT_NE(key.find("gds|BFS|FR|s"), std::string::npos);
}

TEST_F(HarnessTest, RunGdsProducesConsistentRecord)
{
    const auto g = graph::powerLaw(1000, 8000, 0.6, 5, true);
    const auto r = runGds(algo::AlgorithmId::Bfs, "toy", g);
    EXPECT_EQ(r.system, "GraphDynS");
    EXPECT_EQ(r.algorithm, "BFS");
    EXPECT_EQ(r.dataset, "toy");
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.gteps, 0.0);
    EXPECT_GT(r.energyJoules, 0.0);
    EXPECT_GT(r.memoryBytes, 0.0);
}

TEST_F(HarnessTest, VariantRecordsCarryVariantTag)
{
    const auto g = graph::powerLaw(500, 4000, 0.6, 6, true);
    const auto r = runGds(algo::AlgorithmId::Bfs, "toy", g,
                          GdsVariant::We);
    EXPECT_EQ(r.system, "GraphDynS-WE");
}

TEST_F(HarnessTest, AllThreeSystemsRunnable)
{
    const auto g = graph::powerLaw(800, 6400, 0.6, 7, true);
    const auto gds = runGds(algo::AlgorithmId::Sssp, "toy", g);
    const auto gi = runGraphicionado(algo::AlgorithmId::Sssp, "toy", g);
    const auto gpu = runGunrock(algo::AlgorithmId::Sssp, "toy", g);
    EXPECT_GT(gds.seconds, 0.0);
    EXPECT_GT(gi.seconds, 0.0);
    EXPECT_GT(gpu.seconds, 0.0);
    // The headline ordering on a skewed graph.
    EXPECT_LT(gds.seconds, gi.seconds);
}

TEST_F(HarnessTest, FindRecordLocatesCells)
{
    std::vector<RunRecord> records(2);
    records[0].system = "A";
    records[0].algorithm = "BFS";
    records[0].dataset = "FR";
    records[1].system = "B";
    records[1].algorithm = "PR";
    records[1].dataset = "LJ";
    EXPECT_EQ(&findRecord(records, "B", "PR", "LJ"), &records[1]);
}

TEST_F(HarnessTest, DatasetLoaderCachesBinary)
{
    ::setenv("GDS_SCALE", "512", 1);
    const auto g1 = loadDataset("FR", false);
    EXPECT_TRUE(std::filesystem::exists("gds_dataset_FR_s512_u_g2.bin"));
    const auto g2 = loadDataset("FR", false);
    EXPECT_SPAN_EQ(g1.neighborArray(), g2.neighborArray());
    ::unsetenv("GDS_SCALE");
}

TEST_F(HarnessTest, DatasetCacheWriteIsAtomicAndLeavesNoTempFiles)
{
    ::setenv("GDS_SCALE", "16384", 1);
    loadDataset("FR", false);
    EXPECT_TRUE(std::filesystem::exists("gds_dataset_FR_s16384_u_g2.bin"));
    for (const auto &entry : std::filesystem::directory_iterator(".")) {
        EXPECT_EQ(entry.path().string().find(".tmp"), std::string::npos)
            << "leftover temp file " << entry.path();
    }
    ::unsetenv("GDS_SCALE");
}

namespace
{

std::vector<std::string>
fileLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

RunRecord
simpleRecord(double gteps)
{
    RunRecord r;
    r.system = "S";
    r.algorithm = "A";
    r.dataset = "D";
    r.gteps = gteps;
    return r;
}

} // namespace

TEST_F(HarnessTest, CacheJournalAppendsThenCompactsOnExit)
{
    constexpr const char *file = "gds_bench_cache_v1.csv";
    {
        ResultCache cache;
        cache.store("kb", simpleRecord(1.0));
        cache.store("ka", simpleRecord(2.0));
        cache.store("kb", simpleRecord(3.0)); // overwrite appends too
        // Mid-run (pre-destructor) the journal already holds every store
        // in append order — interrupted runs keep their progress, and
        // stores never rewrite the file (a rewrite would be key-sorted).
        const auto lines = fileLines(file);
        ASSERT_EQ(lines.size(), 5u); // format + columns + 3 appends
        EXPECT_EQ(lines[2].rfind("kb,", 0), 0u);
        EXPECT_EQ(lines[3].rfind("ka,", 0), 0u);
        EXPECT_EQ(lines[4].rfind("kb,", 0), 0u);
    }
    // On exit the journal is compacted once: each key exactly once,
    // last write wins.
    const auto lines = fileLines(file);
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(lines[2].rfind("ka,", 0), 0u);
    EXPECT_EQ(lines[3].rfind("kb,", 0), 0u);
    ResultCache reloaded;
    ASSERT_TRUE(reloaded.lookup("kb").has_value());
    EXPECT_DOUBLE_EQ(reloaded.lookup("kb")->gteps, 3.0);
    EXPECT_DOUBLE_EQ(reloaded.lookup("ka")->gteps, 2.0);
}

TEST_F(HarnessTest, CacheJournalSurvivesAcrossInstances)
{
    {
        ResultCache first;
        first.store("k1", simpleRecord(1.5));
    }
    {
        ResultCache second; // append to the compacted file
        EXPECT_TRUE(second.lookup("k1").has_value());
        second.store("k2", simpleRecord(2.5));
    }
    ResultCache third;
    ASSERT_TRUE(third.lookup("k1").has_value());
    ASSERT_TRUE(third.lookup("k2").has_value());
    EXPECT_DOUBLE_EQ(third.lookup("k1")->gteps, 1.5);
    EXPECT_DOUBLE_EQ(third.lookup("k2")->gteps, 2.5);
}

TEST_F(HarnessTest, CacheRefusesDelimiterAndControlCharacterFields)
{
    ResultCache cache;
    RunRecord r = simpleRecord(1.0);
    r.system = "Graph,DynS"; // would re-parse with shifted columns
    EXPECT_THROW(cache.store("k", r), ConfigError);
    r = simpleRecord(1.0);
    r.dataset = "F\nR";
    EXPECT_THROW(cache.store("k", r), ConfigError);
    r = simpleRecord(1.0);
    r.status = "bad\tstatus";
    EXPECT_THROW(cache.store("k", r), ConfigError);
    EXPECT_THROW(cache.store("a,b", simpleRecord(1.0)), ConfigError);
    // The refused stores left no trace, in memory or on disk.
    EXPECT_FALSE(cache.lookup("k").has_value());
    EXPECT_FALSE(std::filesystem::exists("gds_bench_cache_v1.csv"));
}

// ---------------------------------------------------------------------
// RunSpec and its field table.
// ---------------------------------------------------------------------

TEST(RunSpecKey, PlainSpecKeyIsTheCellKeyForEverySystem)
{
    for (const SystemId sys : {SystemId::GraphDynS, SystemId::Graphicionado,
                               SystemId::Gunrock}) {
        EXPECT_EQ(RunSpec(sys, algo::AlgorithmId::Pr, "LJ").key(),
                  cellKey(systemTag(sys), algo::AlgorithmId::Pr, "LJ"))
            << systemName(sys);
    }
}

TEST(RunSpecKey, GdsKnobsAndVariantsExtendOnlyGraphDynSKeys)
{
    const RunSpec plain(SystemId::GraphDynS, algo::AlgorithmId::Pr, "LJ");
    RunSpec ues = plain;
    ues.gds.numUes = 64;
    RunSpec bandwidth = plain;
    bandwidth.gds.hbm.numChannels = 16;
    RunSpec wb = plain;
    wb.variant = GdsVariant::Wb;
    RunSpec no_wb = plain;
    no_wb.gds.workloadBalance = false;
    const std::vector<std::string> keys{plain.key(), ues.key(),
                                        bandwidth.key(), wb.key(),
                                        no_wb.key()};
    for (std::size_t i = 0; i < keys.size(); ++i)
        for (std::size_t j = i + 1; j < keys.size(); ++j)
            EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
    EXPECT_EQ(keys[3], plain.key() + "|WB");

    // The spec's iteration cap governs, whatever gds.maxIterations holds.
    RunSpec capped = plain;
    capped.gds.maxIterations = 3;
    EXPECT_EQ(capped.key(), plain.key());
    EXPECT_EQ(capped.gdsConfig().maxIterations, iterationCap(plain.algorithm));

    // Other systems ignore the GraphDynS knobs, so their keys do too.
    RunSpec gi(SystemId::Graphicionado, algo::AlgorithmId::Pr, "LJ");
    const std::string gi_key = gi.key();
    gi.gds.numUes = 64;
    gi.variant = GdsVariant::Wb;
    EXPECT_EQ(gi.key(), gi_key);
}

SpecValues
flagValues(
    const std::vector<std::pair<std::string, std::string>> &flags)
{
    SpecValues values;
    for (const auto &[flag, text] : flags) {
        const SpecField *f = specFieldByFlag(flag);
        EXPECT_NE(f, nullptr) << flag;
        if (f)
            values[f] = text;
    }
    return values;
}

Result<RunSpec>
requestSpec(const std::string &json)
{
    auto doc = common::parseJson(json);
    EXPECT_TRUE(doc.ok()) << json;
    auto values = specValuesFromJson(doc.value());
    if (!values.ok())
        return values.status();
    return parseSpec(values.value(), /*cli=*/false);
}

TEST(SpecFields, CommandLineAndRequestSpellingsBuildTheSameSpec)
{
    const auto cli = parseSpec(flagValues({{"--algo", "pr"},
                                           {"--dataset", "LJ"},
                                           {"--system", "gds"},
                                           {"--iters", "3"},
                                           {"--pes", "64"},
                                           {"--ues", "64"},
                                           {"--no-wb", ""},
                                           {"--no-us", ""}}),
                               /*cli=*/true);
    const auto req = requestSpec(
        R"({"algorithm":"pr","dataset":"LJ","system":"gds",)"
        R"("iterations":"3","pes":64,"ues":64,"no_wb":true,)"
        R"("no_ep":false,"no_us":true})");
    ASSERT_TRUE(cli.ok()) << cli.status().toString();
    ASSERT_TRUE(req.ok()) << req.status().toString();
    EXPECT_EQ(cli.value().key(), req.value().key());
    EXPECT_EQ(configHash(cli.value().gdsConfig()),
              configHash(req.value().gdsConfig()));
    const core::GdsConfig cfg = cli.value().gdsConfig();
    EXPECT_EQ(cfg.numPes, 64u);
    EXPECT_EQ(cfg.numDispatchers, 64u);
    EXPECT_EQ(cfg.numUes, 64u);
    EXPECT_EQ(cfg.maxIterations, 3u);
    EXPECT_FALSE(cfg.workloadBalance);
    EXPECT_TRUE(cfg.exactPrefetch);
    EXPECT_FALSE(cfg.updateScheduling);
}

TEST(SpecFields, EveryFieldIsSpelledOnceInEachForm)
{
    std::set<std::string> flags;
    std::set<std::string> names;
    for (const SpecField &f : specFields()) {
        EXPECT_EQ(std::string(f.flag).rfind("--", 0), 0u) << f.flag;
        EXPECT_TRUE(flags.insert(f.flag).second) << f.flag;
        EXPECT_TRUE(names.insert(f.json).second) << f.json;
        EXPECT_EQ(specFieldByFlag(f.flag), &f);
    }
    EXPECT_EQ(specFieldByFlag("--graph"), nullptr);
}

TEST(SpecFields, ChecksEveryBoundInBothSpellings)
{
    // The iteration cap takes the stricter of the two historical
    // bounds: 1..1e6, whichever entry point parses it.
    const auto at = [](const char *iters) {
        return flagValues(
            {{"--algo", "bfs"}, {"--dataset", "FR"}, {"--iters", iters}});
    };
    EXPECT_TRUE(parseSpec(at("1000000"), true).ok());
    for (const char *bad : {"0", "1000001", "-1", "1e3", "12x"}) {
        const auto r = parseSpec(at(bad), true);
        ASSERT_FALSE(r.ok()) << bad;
        EXPECT_EQ(r.status().code(), ErrorCode::Config);
        EXPECT_NE(r.status().message().find("--iters"), std::string::npos)
            << r.status().message();
    }
    const auto json = requestSpec(
        R"({"algorithm":"bfs","dataset":"FR","iterations":1000001})");
    ASSERT_FALSE(json.ok());
    EXPECT_NE(json.status().message().find("field 'iterations'"),
              std::string::npos)
        << json.status().message();

    for (const char *bad_request : {
             R"({"dataset":"FR"})",
             R"({"algorithm":"bfs"})",
             R"({"algorithm":"bfs","dataset":"NOPE"})",
             R"({"algorithm":"bfs","dataset":"FR","system":"all"})",
             R"({"algorithm":"bfs","dataset":"FR","no_wb":"yes"})",
             R"({"algorithm":"bfs","dataset":"FR","ues":0})",
             R"({"algorithm":"bfs","dataset":"FR","wall_budget_seconds":-1})",
         }) {
        const auto r = requestSpec(bad_request);
        ASSERT_FALSE(r.ok()) << bad_request;
        EXPECT_EQ(r.status().code(), ErrorCode::Config) << bad_request;
    }
}

TEST(SpecFields, NonPowerOfTwoUesIsATypedConfigError)
{
    const auto r = parseSpec(flagValues({{"--algo", "pr"},
                                         {"--dataset", "FR"},
                                         {"--ues", "48"}}),
                             /*cli=*/true);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), ErrorCode::Config);
    EXPECT_NE(r.status().message().find("numUes"), std::string::npos)
        << r.status().message();
}

TEST(SpecFields, DatasetIsOptionalOnlyWhenTheCallerSaysSo)
{
    const SpecValues values = flagValues({{"--algo", "sssp"}});
    const auto strict = parseSpec(values, /*cli=*/true);
    ASSERT_FALSE(strict.ok());
    EXPECT_NE(strict.status().message().find("missing --dataset"),
              std::string::npos)
        << strict.status().message();
    const auto loose = parseSpec(values, /*cli=*/true,
                                 /*need_dataset=*/false);
    ASSERT_TRUE(loose.ok());
    EXPECT_EQ(loose.value().algorithm, algo::AlgorithmId::Sssp);
    EXPECT_TRUE(loose.value().dataset.empty());
}

TEST(SpecFields, RequestMembersRoundTripThroughTheDaemonParser)
{
    const SpecValues values = flagValues({{"--algo", "cc"},
                                          {"--dataset", "PK"},
                                          {"--system", "graphicionado"},
                                          {"--source", "7"},
                                          {"--wall-budget", "1.5"},
                                          {"--no-ao", ""}});
    const auto cli = parseSpec(values, /*cli=*/true);
    const auto req = requestSpec("{\"op\":\"submit\"" +
                                 specJsonMembers(values) + "}");
    ASSERT_TRUE(cli.ok()) << cli.status().toString();
    ASSERT_TRUE(req.ok()) << req.status().toString();
    EXPECT_EQ(req.value().key(), cli.value().key());
    EXPECT_EQ(req.value().system, SystemId::Graphicionado);
    EXPECT_EQ(req.value().source, std::optional<VertexId>(7));
    EXPECT_DOUBLE_EQ(req.value().wallBudgetSeconds, 1.5);
    EXPECT_FALSE(req.value().gds.zeroStallAtomics);
}

TEST_F(HarnessTest, RunHonoursGunrockSourceAndIterations)
{
    const auto g = graph::powerLaw(800, 6400, 0.6, 7, false);
    RunSpec spec(SystemId::Gunrock, algo::AlgorithmId::Pr, "toy");
    spec.iterations = 3;
    EXPECT_EQ(run(spec, g).iterations, 3u);
    EXPECT_EQ(run(RunSpec(SystemId::Gunrock, algo::AlgorithmId::Pr, "toy"),
                  g)
                  .iterations,
              iterationCap(algo::AlgorithmId::Pr));
}

TEST_F(HarnessTest, RunHooksSeeTheAcceleratorStats)
{
    const auto g = graph::powerLaw(500, 4000, 0.6, 6, false);
    for (const SystemId sys : {SystemId::GraphDynS, SystemId::Graphicionado,
                               SystemId::Gunrock}) {
        RunHooks hooks;
        Cycle cycles = 0;
        std::ostringstream stats_text;
        hooks.onFinish = [&](const core::RunResult &result,
                             const stats::Group &group) {
            cycles = result.cycles;
            group.dump(stats_text);
        };
        const RunRecord r =
            run(RunSpec(sys, algo::AlgorithmId::Bfs, "toy"), g, hooks);
        ASSERT_TRUE(r.ok()) << systemName(sys);
        if (sys == SystemId::Gunrock) {
            // Not a cycle-level model: no stats tree to show.
            EXPECT_EQ(cycles, 0u);
            continue;
        }
        EXPECT_DOUBLE_EQ(static_cast<double>(cycles) * 1e-9, r.seconds);
        EXPECT_NE(stats_text.str().find("hbm."), std::string::npos)
            << systemName(sys);
    }
}

} // namespace
} // namespace gds::harness
