/**
 * @file
 * Tests for the parallel experiment runner: the GDS_JOBS worker-count
 * policy, the ThreadPool/parallelFor scheduler, concurrent access to the
 * thread-safe result cache, the matrix's graph-major dispatch order, and
 * the determinism guarantee that a parallel evaluationMatrix returns
 * records byte-identical to the serial order. These are the tests CI
 * also runs under GDS_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hh"
#include "harness/experiment.hh"

namespace gds::harness
{
namespace
{

/** Build "<prefix><i>" by appending, not operator+: GCC 12's -Wrestrict
 *  false positive (PR105651) fires on `"lit" + std::string&&` at -O2. */
std::string
keyOf(const char *prefix, std::size_t i)
{
    std::string key = prefix;
    key += std::to_string(i);
    return key;
}

TEST(Parallel, JobCountReadsEnvWithFallback)
{
    ::setenv("GDS_JOBS", "3", 1);
    EXPECT_EQ(common::jobCount(), 3u);
    ::setenv("GDS_JOBS", "0", 1); // invalid: falls back, stays positive
    EXPECT_GE(common::jobCount(), 1u);
    ::setenv("GDS_JOBS", "junk", 1);
    EXPECT_GE(common::jobCount(), 1u);
    ::unsetenv("GDS_JOBS");
    EXPECT_GE(common::jobCount(), 1u);
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    common::parallelFor(n, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Parallel, ParallelForIsSerialInOrderWithOneJob)
{
    std::vector<std::size_t> order;
    common::parallelFor(5, 1, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ParallelForPropagatesTaskException)
{
    std::atomic<int> completed{0};
    EXPECT_THROW(common::parallelFor(64, 4,
                                     [&](std::size_t i) {
                                         if (i == 17)
                                             throw ConfigError("boom");
                                         completed.fetch_add(1);
                                     }),
                 ConfigError);
    // The queue drained before rethrow: every other index still ran.
    EXPECT_EQ(completed.load(), 63);
}

TEST(Parallel, ThreadPoolDrainsAndIsReusableAfterWait)
{
    common::ThreadPool pool(4);
    EXPECT_EQ(pool.workerCount(), 4u);
    std::atomic<int> sum{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&] { sum.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(sum.load(), 100);
    pool.submit([&] { sum.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(sum.load(), 101);
}

/** The matrix's cells in dispatch order at @p scale. */
std::vector<MatrixCell>
dispatchedCells(unsigned scale)
{
    const std::vector<MatrixCell> cells = matrixCells();
    std::vector<MatrixCell> dispatched;
    for (const std::size_t i : matrixDispatchOrder(cells, scale))
        dispatched.push_back(cells.at(i));
    return dispatched;
}

/** Scale divisors the order is checked at; 2^20 clamps every graph to
 *  256 edges, so all edge counts tie. */
constexpr unsigned dispatchScales[] = {1, 16, 64, 1u << 20};

TEST(MatrixDispatch, IsAPermutationOfTheNinetyCells)
{
    const std::vector<MatrixCell> cells = matrixCells();
    ASSERT_EQ(cells.size(), 90u);
    for (const unsigned scale : dispatchScales) {
        std::vector<std::size_t> order = matrixDispatchOrder(cells, scale);
        ASSERT_EQ(order.size(), cells.size()) << "scale " << scale;
        std::sort(order.begin(), order.end());
        for (std::size_t i = 0; i < order.size(); ++i)
            ASSERT_EQ(order[i], i) << "scale " << scale;
    }
}

TEST(MatrixDispatch, EachGraphIsOneContiguousRun)
{
    for (const unsigned scale : dispatchScales) {
        // Six datasets, each unweighted (BFS CC PR) and weighted (SSSP
        // SSWP): twelve graphs, so twelve runs means one run per graph.
        std::vector<std::pair<std::string, bool>> runs;
        std::set<std::pair<std::string, bool>> graphs;
        for (const MatrixCell &c : dispatchedCells(scale)) {
            const std::pair<std::string, bool> graph{c.data->name,
                                                     c.weighted};
            graphs.insert(graph);
            if (runs.empty() || runs.back() != graph)
                runs.push_back(graph);
        }
        EXPECT_EQ(graphs.size(), 12u);
        EXPECT_EQ(runs.size(), graphs.size()) << "scale " << scale;
    }
}

TEST(MatrixDispatch, GraphsComeInNonIncreasingEdgeCountUnweightedFirst)
{
    for (const unsigned scale : dispatchScales) {
        const std::vector<MatrixCell> cells = dispatchedCells(scale);
        for (std::size_t k = 1; k < cells.size(); ++k) {
            const MatrixCell &prev = cells[k - 1];
            const MatrixCell &cur = cells[k];
            EXPECT_GE(prev.data->scaledEdges(scale),
                      cur.data->scaledEdges(scale))
                << "position " << k << ", scale " << scale;
            if (prev.data == cur.data) {
                EXPECT_LE(prev.weighted, cur.weighted)
                    << cur.data->name << " position " << k;
            }
        }
    }
    // At the benchmark's scale the largest graph goes first.
    EXPECT_EQ(dispatchedCells(64).front().data->name, "OR");
    EXPECT_EQ(dispatchedCells(64).back().data->name, "FR");
}

TEST(MatrixDispatch, CostliestAlgorithmFirstWithinAGraph)
{
    using algo::AlgorithmId;
    for (const unsigned scale : dispatchScales) {
        const std::vector<MatrixCell> cells = dispatchedCells(scale);
        for (std::size_t k = 0; k < cells.size(); k += 3) {
            // One algorithm's three systems, in canonical order.
            ASSERT_LE(k + 3, cells.size());
            EXPECT_EQ(cells[k].spec.system, SystemId::GraphDynS);
            EXPECT_EQ(cells[k + 1].spec.system, SystemId::Graphicionado);
            EXPECT_EQ(cells[k + 2].spec.system, SystemId::Gunrock);
            for (std::size_t j = k + 1; j < k + 3; ++j) {
                EXPECT_EQ(cells[j].spec.algorithm, cells[k].spec.algorithm);
                EXPECT_EQ(cells[j].data, cells[k].data);
            }
        }
        // Per graph: PR, CC, BFS (unweighted), then SSWP, SSSP.
        const std::vector<AlgorithmId> per_dataset = {
            AlgorithmId::Pr,   AlgorithmId::Cc,   AlgorithmId::Bfs,
            AlgorithmId::Sswp, AlgorithmId::Sssp};
        for (std::size_t k = 0; k < cells.size(); ++k) {
            EXPECT_EQ(cells[k].spec.algorithm, per_dataset[(k / 3) % 5])
                << "position " << k << ", scale " << scale;
        }
    }
}

/** Run cache/matrix tests in a scratch directory (they write CWD files). */
class ParallelHarnessTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        original = std::filesystem::current_path();
        scratch = std::filesystem::temp_directory_path() /
                  ("gds_parallel_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(scratch);
        std::filesystem::current_path(scratch);
    }

    void
    TearDown() override
    {
        std::filesystem::current_path(original);
        std::filesystem::remove_all(scratch);
        ::unsetenv("GDS_JOBS");
        ::unsetenv("GDS_SCALE");
    }

    std::filesystem::path original;
    std::filesystem::path scratch;
};

TEST_F(ParallelHarnessTest, ConcurrentStoresOnDistinctKeys)
{
    constexpr std::size_t n = 64;
    {
        ResultCache cache;
        common::parallelFor(n, 8, [&](std::size_t i) {
            RunRecord r;
            r.system = "S";
            r.algorithm = "A";
            r.dataset = keyOf("D", i);
            r.gteps = static_cast<double>(i);
            cache.store(keyOf("k", i), r);
        });
        for (std::size_t i = 0; i < n; ++i) {
            const auto found = cache.lookup(keyOf("k", i));
            ASSERT_TRUE(found.has_value()) << "key k" << i;
            EXPECT_DOUBLE_EQ(found->gteps, static_cast<double>(i));
        }
    }
    // Everything survived the journal + compaction round trip.
    ResultCache reloaded;
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_TRUE(reloaded.lookup(keyOf("k", i)).has_value());
}

TEST_F(ParallelHarnessTest, ConcurrentGetOrRunOnTheSameKeyIsConsistent)
{
    constexpr std::size_t n = 16;
    std::atomic<int> calls{0};
    std::vector<RunRecord> results(n);
    {
        ResultCache cache;
        common::parallelFor(n, 8, [&](std::size_t i) {
            results[i] = cache.getOrRun("shared", [&] {
                calls.fetch_add(1);
                RunRecord r;
                r.system = "S";
                r.algorithm = "A";
                r.dataset = "D";
                r.gteps = 7.5;
                return r;
            });
        });
    }
    // Racing computations are allowed (cells are deterministic), but
    // every caller observes the same record and one entry persists.
    EXPECT_GE(calls.load(), 1);
    for (const RunRecord &r : results)
        EXPECT_DOUBLE_EQ(r.gteps, 7.5);
    ResultCache reloaded;
    const auto found = reloaded.lookup("shared");
    ASSERT_TRUE(found.has_value());
    EXPECT_DOUBLE_EQ(found->gteps, 7.5);
}

TEST_F(ParallelHarnessTest, MatrixParallelMatchesSerialByteForByte)
{
    // Tiny datasets (the scale clamps at 64 vertices / 256 edges) keep
    // two cold 90-cell matrix runs fast enough for a unit test.
    ::setenv("GDS_SCALE", "16384", 1);

    ::setenv("GDS_JOBS", "1", 1);
    std::string serial_json;
    {
        ResultCache cache;
        const auto records = evaluationMatrix(cache);
        EXPECT_EQ(records.size(), 90u);
        std::ostringstream os;
        dumpRecordsJson(records, os);
        serial_json = os.str();
    }

    // Drop the result cache so the parallel run is cold too (the binary
    // dataset cache stays: the pool still guards it with once-only
    // loading).
    std::filesystem::remove("gds_bench_cache_v1.csv");

    ::setenv("GDS_JOBS", "4", 1);
    std::string parallel_json;
    {
        ResultCache cache;
        const auto records = evaluationMatrix(cache);
        std::ostringstream os;
        dumpRecordsJson(records, os);
        parallel_json = os.str();
    }

    EXPECT_EQ(serial_json, parallel_json);
}

TEST_F(ParallelHarnessTest, MatrixRecordsEqualCanonicalOrderRuns)
{
    // The records of the graph-major dispatch are exactly those of
    // running every cell one by one in canonical order.
    ::setenv("GDS_SCALE", "16384", 1);
    std::vector<RunRecord> canonical;
    for (const MatrixCell &c : matrixCells())
        canonical.push_back(
            run(c.spec, loadDataset(c.data->name, c.weighted)));
    std::ostringstream expected;
    dumpRecordsJson(canonical, expected);

    for (const char *jobs : {"1", "3"}) {
        ::setenv("GDS_JOBS", jobs, 1);
        std::filesystem::remove("gds_bench_cache_v1.csv");
        ResultCache cache;
        std::ostringstream os;
        dumpRecordsJson(evaluationMatrix(cache), os);
        EXPECT_EQ(os.str(), expected.str()) << "GDS_JOBS=" << jobs;
    }
}

TEST_F(ParallelHarnessTest, WarmMatrixNeedsNoSimulationAndStaysOrdered)
{
    ::setenv("GDS_SCALE", "16384", 1);
    ::setenv("GDS_JOBS", "4", 1);
    std::string cold_json;
    {
        ResultCache cache;
        std::ostringstream os;
        dumpRecordsJson(evaluationMatrix(cache), os);
        cold_json = os.str();
    }
    // Same cache file, warm rerun: identical records in identical order.
    {
        ResultCache cache;
        std::ostringstream os;
        dumpRecordsJson(evaluationMatrix(cache), os);
        EXPECT_EQ(cold_json, os.str());
    }
}

} // namespace
} // namespace gds::harness
