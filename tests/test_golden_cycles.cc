/**
 * @file
 * Golden-cycle gate: both accelerator models x the five algorithms x two
 * small graphs (RMAT-10 and a 32x32 grid), plus the GraphDynS ablation
 * configurations WB, WE, WEA and noWB (Fig. 14) on the same cells, each
 * checked field by field against tests/golden_cycles.json. The ablations
 * cover the datapath paths the full design never takes: non-exact
 * (per-record, cacheline-granular) edge prefetch, the UE stall path with
 * zeroStallAtomics off and dispatch with workloadBalance off. The
 * fast-forward equivalence suite proves ff == naive within one build;
 * this file pins the absolute numbers across builds, so a speed-up or
 * refactor that drifts a single simulated cycle, HBM row hit or crossbar
 * conflict fails here. GoldenCyclesGate proves the gate itself bites: an
 * HBM CAS latency one cycle longer must mismatch for both accelerators.
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
#include "harness/experiment.hh"

namespace gds
{
namespace
{

using algo::AlgorithmId;
using harness::GdsVariant;

/** PR never converges exactly; a fixed cap keeps the cells small. */
constexpr unsigned kPrIterations = 5;

struct GoldenCell
{
    std::string system; ///< "gds" or "graphicionado"
    AlgorithmId algorithm;
    std::string graphName; ///< "rmat10" or "grid32"
    /** GraphDynS ablation configuration; Full for Graphicionado. */
    GdsVariant variant = GdsVariant::Full;

    /** "gds/BFS/rmat10", or "gds-WB/BFS/rmat10" for an ablation. */
    std::string
    name() const
    {
        const std::string sys =
            variant == GdsVariant::Full
                ? system
                : system + "-" + harness::variantName(variant);
        return sys + "/" + algo::algorithmName(algorithm) + "/" +
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

/**
 * Run one cell. @p extra_cas lengthens the HBM CAS latency (tCl) by that
 * many cycles: the planted timing mutation of GoldenCyclesGate.
 */
template <typename Accel, typename Config>
GoldenValues
runCell(const GoldenCell &cell, Config cfg, bool has_crossbar,
        Cycle extra_cas)
{
    auto algorithm = algo::makeAlgorithm(cell.algorithm);
    const graph::Csr g = makeGraph(cell.graphName, algorithm->usesWeights());
    cfg.hbm.tCl += extra_cas;
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
measure(const GoldenCell &cell, Cycle extra_cas = 0)
{
    if (cell.system == "gds") {
        return runCell<core::GdsAccel>(
            cell, harness::applyVariant(core::GdsConfig{}, cell.variant),
            true, extra_cas);
    }
    return runCell<baseline::GraphicionadoAccel>(
        cell, baseline::GraphicionadoConfig{}, false, extra_cas);
}

std::vector<GoldenCell>
allCells()
{
    std::vector<GoldenCell> cells;
    for (const char *system : {"gds", "graphicionado"})
        for (const AlgorithmId a : algo::allAlgorithms)
            for (const char *graph_name : {"rmat10", "grid32"})
                cells.push_back(GoldenCell{system, a, graph_name});
    for (const GdsVariant v : {GdsVariant::Wb, GdsVariant::We,
                               GdsVariant::Wea, GdsVariant::NoWb})
        for (const AlgorithmId a : algo::allAlgorithms)
            for (const char *graph_name : {"rmat10", "grid32"})
                cells.push_back(GoldenCell{"gds", a, graph_name, v});
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

/**
 * The recorded values of @p cell, in kFields order; shorter than kFields
 * when tests/golden_cycles.json lacks the cell or one of its fields.
 */
std::vector<std::uint64_t>
recorded(const GoldenCell &cell)
{
    const common::JsonValue &doc = goldenFile();
    const common::JsonValue *cells =
        doc.isObject() ? doc.find("cells") : nullptr;
    const common::JsonValue *want =
        cells != nullptr && cells->isObject() ? cells->find(cell.name())
                                              : nullptr;
    std::vector<std::uint64_t> values;
    for (const char *name : kFields) {
        const common::JsonValue *field =
            want != nullptr ? want->find(name) : nullptr;
        // Integers travel as decimal strings: the checksum and large
        // counters do not round-trip through a double.
        if (field == nullptr || !field->isString())
            break;
        values.push_back(std::stoull(field->asString()));
    }
    return values;
}

class GoldenCycles : public ::testing::TestWithParam<GoldenCell>
{};

TEST_P(GoldenCycles, MatchesRecordedValues)
{
    const GoldenCell &cell = GetParam();
    const std::vector<std::uint64_t> want = recorded(cell);
    ASSERT_EQ(want.size(), std::size(kFields))
        << "tests/golden_cycles.json has no complete entry for "
        << cell.name();

    const std::vector<std::uint64_t> got = asList(measure(cell));
    for (std::size_t i = 0; i < std::size(kFields); ++i)
        EXPECT_EQ(want[i], got[i]) << cell.name() << " " << kFields[i];
}

INSTANTIATE_TEST_SUITE_P(
    BothAccelerators, GoldenCycles, ::testing::ValuesIn(allCells()),
    [](const ::testing::TestParamInfo<GoldenCell> &cell_info) {
        std::string n = cell_info.param.name();
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

/**
 * Planted mutation: with tCl one cycle longer, the comparison above must
 * report a mismatch for both accelerators. A gate that stays green under
 * a perturbed memory timing would prove nothing.
 */
TEST(GoldenCyclesGate, PerturbedCasLatencyIsReportedAsMismatch)
{
    for (const char *system : {"gds", "graphicionado"}) {
        const GoldenCell cell{system, AlgorithmId::Bfs, "rmat10"};
        const std::vector<std::uint64_t> want = recorded(cell);
        ASSERT_EQ(want.size(), std::size(kFields)) << cell.name();
        ASSERT_EQ(asList(measure(cell)), want)
            << cell.name() << " must match before the mutation";
        EXPECT_NE(asList(measure(cell, 1)), want)
            << cell.name() << ": tCl + 1 went unnoticed by the gate";
    }
}

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
