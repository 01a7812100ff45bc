/**
 * @file
 * Golden-cycle gate: both accelerator models x the five algorithms x two
 * small graphs (RMAT-10 and a 32x32 grid), each checked field by field
 * against tests/golden_cycles.json. The fast-forward equivalence suite
 * proves ff == naive within one build; this file pins the absolute
 * numbers across builds, so a speed-up or refactor that drifts a single
 * simulated cycle, HBM row hit or crossbar conflict fails here.
 *
 * Changing the golden file on purpose is a model change and needs a
 * CHANGES.md entry explaining it. To re-record (from the build dir):
 *
 *   ./tests/test_golden_cycles --gtest_also_run_disabled_tests \
 *       --gtest_filter='GoldenCyclesFile.*'
 *
 * which writes golden_cycles.json into the working directory.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "algo/vcpm.hh"
#include "baseline/graphicionado.hh"
#include "common/bitutil.hh"
#include "common/jsonio.hh"
#include "core/gds_accel.hh"
#include "graph/generators.hh"

namespace gds
{
namespace
{

using algo::AlgorithmId;

/** PR never converges exactly; a fixed cap keeps the cells small. */
constexpr unsigned kPrIterations = 5;

struct GoldenCell
{
    std::string system; ///< "gds" or "graphicionado"
    AlgorithmId algorithm;
    std::string graphName; ///< "rmat10" or "grid32"

    std::string
    name() const
    {
        return system + "/" + algo::algorithmName(algorithm) + "/" +
               graphName;
    }
};

/** gtest prints failing parameters with this instead of raw bytes. */
void
PrintTo(const GoldenCell &cell, std::ostream *os)
{
    *os << cell.name();
}

/** The recorded fields, in file order. */
struct GoldenValues
{
    std::uint64_t simCycles = 0;
    std::uint64_t iterations = 0;
    std::uint64_t memoryBytes = 0;
    std::uint64_t occupancySum = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t requests = 0;
    std::uint64_t conflicts = 0; ///< crossbar; 0 for Graphicionado
    std::uint64_t propertyChecksum = 0;
};

const char *const kFields[] = {
    "simCycles", "iterations", "memoryBytes", "hbm.occupancySum",
    "hbm.rowHits", "hbm.requests", "crossbar.conflicts",
    "propertyChecksum"};

std::vector<std::uint64_t>
asList(const GoldenValues &v)
{
    return {v.simCycles, v.iterations,  v.memoryBytes, v.occupancySum,
            v.rowHits,   v.requests,    v.conflicts,   v.propertyChecksum};
}

graph::Csr
makeGraph(const std::string &name, bool weighted)
{
    if (name == "rmat10")
        return graph::rmat(10, 16, 7, {}, weighted, 1);
    return graph::grid2d(32, 32, 7, weighted);
}

std::uint64_t
counter(const stats::Group &group, const std::string &path)
{
    return static_cast<std::uint64_t>(group.scalar(path).value());
}

template <typename Accel, typename Config>
GoldenValues
runCell(const GoldenCell &cell, bool has_crossbar)
{
    auto algorithm = algo::makeAlgorithm(cell.algorithm);
    const graph::Csr g = makeGraph(cell.graphName, algorithm->usesWeights());
    Config cfg;
    if (cell.algorithm == AlgorithmId::Pr)
        cfg.maxIterations = kPrIterations;
    Accel accel(cfg, g, *algorithm);
    core::RunOptions run;
    run.source = algo::defaultSource(g);
    const core::RunResult r = accel.run(run);
    EXPECT_TRUE(r.completed()) << cell.name();

    GoldenValues v;
    v.simCycles = r.cycles;
    v.iterations = r.iterations;
    v.memoryBytes = r.memoryBytes;
    v.occupancySum = counter(accel.statsGroup(), "hbm.occupancySum");
    v.rowHits = counter(accel.statsGroup(), "hbm.rowHits");
    v.requests = counter(accel.statsGroup(), "hbm.requests");
    if (has_crossbar)
        v.conflicts = counter(accel.statsGroup(), "crossbar.conflicts");
    v.propertyChecksum =
        fnv1a64(r.properties.data(), r.properties.size() * sizeof(PropValue));
    return v;
}

GoldenValues
measure(const GoldenCell &cell)
{
    if (cell.system == "gds")
        return runCell<core::GdsAccel, core::GdsConfig>(cell, true);
    return runCell<baseline::GraphicionadoAccel,
                   baseline::GraphicionadoConfig>(cell, false);
}

std::vector<GoldenCell>
allCells()
{
    std::vector<GoldenCell> cells;
    for (const char *system : {"gds", "graphicionado"})
        for (const AlgorithmId a : algo::allAlgorithms)
            for (const char *graph_name : {"rmat10", "grid32"})
                cells.push_back(GoldenCell{system, a, graph_name});
    return cells;
}

/** Parse tests/golden_cycles.json into cell name -> recorded object. */
const common::JsonValue &
goldenFile()
{
    static const common::JsonValue doc = [] {
        const std::string path =
            std::string(GDS_SOURCE_ROOT) + "/tests/golden_cycles.json";
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        auto parsed = common::parseJson(text.str());
        if (!parsed.ok())
            return common::JsonValue::makeNull();
        return parsed.value();
    }();
    return doc;
}

class GoldenCycles : public ::testing::TestWithParam<GoldenCell>
{};

TEST_P(GoldenCycles, MatchesRecordedValues)
{
    const GoldenCell &cell = GetParam();
    const common::JsonValue &doc = goldenFile();
    ASSERT_TRUE(doc.isObject()) << "tests/golden_cycles.json is missing "
                                   "or not a JSON object";
    const common::JsonValue *cells = doc.find("cells");
    ASSERT_TRUE(cells != nullptr && cells->isObject());
    const common::JsonValue *want = cells->find(cell.name());
    ASSERT_NE(want, nullptr) << "no golden entry for " << cell.name();

    const std::vector<std::uint64_t> got = asList(measure(cell));
    for (std::size_t i = 0; i < std::size(kFields); ++i) {
        const common::JsonValue *field = want->find(kFields[i]);
        ASSERT_NE(field, nullptr) << cell.name() << " lacks " << kFields[i];
        // Integers travel as decimal strings: the checksum and large
        // counters do not round-trip through a double.
        ASSERT_TRUE(field->isString()) << kFields[i];
        EXPECT_EQ(std::stoull(field->asString()), got[i])
            << cell.name() << " " << kFields[i];
    }
}

INSTANTIATE_TEST_SUITE_P(
    BothAccelerators, GoldenCycles, ::testing::ValuesIn(allCells()),
    [](const ::testing::TestParamInfo<GoldenCell> &cell_info) {
        std::string n = cell_info.param.system + "_" +
                        algo::algorithmName(cell_info.param.algorithm) + "_" +
                        cell_info.param.graphName;
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

/** Writes golden_cycles.json into the working directory (see @file). */
TEST(GoldenCyclesFile, DISABLED_Record)
{
    std::ofstream out("golden_cycles.json");
    out << "{\n  \"cells\": {\n";
    const std::vector<GoldenCell> cells = allCells();
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const std::vector<std::uint64_t> got = asList(measure(cells[c]));
        out << "    " << common::jsonQuote(cells[c].name()) << ": {";
        for (std::size_t i = 0; i < got.size(); ++i) {
            out << (i ? ", " : "") << "\"" << kFields[i] << "\": \""
                << got[i] << "\"";
        }
        out << "}" << (c + 1 < cells.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    ASSERT_TRUE(out.good());
}

} // namespace
} // namespace gds
