/**
 * @file
 * Claim gate: the paper's headline result, checked against the pinned
 * evaluation matrix (perfbench/golden_matrix.json, 90 cells at
 * GDS_SCALE=64) without running a simulation. In every one of the 30
 * (algorithm, dataset) cells GraphDynS must be faster than Graphicionado,
 * which must be faster than Gunrock, and the geometric-mean speedups
 * must stay in a band around their recorded values (1.833x over
 * Graphicionado, 4.393x over Gunrock; the paper reports 1.9x and 4.4x).
 * The matrix is re-pinned only with a model change, and such a change
 * must not silently lose the claim.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/jsonio.hh"

namespace gds
{
namespace
{

const char *const kAlgorithms[] = {"BFS", "SSSP", "CC", "SSWP", "PR"};
const char *const kDatasets[] = {"FR", "PK", "LJ", "HO", "IN", "OR"};

common::JsonValue
goldenMatrix()
{
    const std::string path =
        std::string(GDS_SOURCE_ROOT) + "/perfbench/golden_matrix.json";
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    auto parsed = common::parseJson(text.str());
    EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().toString();
    return parsed.ok() ? parsed.value() : common::JsonValue::makeNull();
}

double
geometricMean(const std::vector<double> &values)
{
    double log_sum = 0.0;
    for (const double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

TEST(ClaimGate, GraphDynSBeatsBothBaselinesInEveryCell)
{
    const common::JsonValue doc = goldenMatrix();
    const common::JsonValue *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);

    auto seconds = [&](const std::string &system, const char *algorithm,
                       const char *dataset) {
        const common::JsonValue *cell =
            cells->find(system + "/" + algorithm + "/" + dataset);
        EXPECT_NE(cell, nullptr) << system << "/" << algorithm << "/"
                                 << dataset << " is not pinned";
        const common::JsonValue *status =
            cell ? cell->find("status") : nullptr;
        EXPECT_TRUE(status && status->isString() &&
                    status->asString() == "ok");
        const common::JsonValue *s = cell ? cell->find("seconds") : nullptr;
        return s && s->isNumber() ? s->asNumber() : NAN;
    };

    std::vector<double> over_gi;
    std::vector<double> over_gunrock;
    for (const char *algorithm : kAlgorithms) {
        for (const char *dataset : kDatasets) {
            const double gds = seconds("GraphDynS", algorithm, dataset);
            const double gi = seconds("Graphicionado", algorithm, dataset);
            const double gpu = seconds("Gunrock", algorithm, dataset);
            EXPECT_LT(gds, gi) << algorithm << "/" << dataset;
            EXPECT_LT(gi, gpu) << algorithm << "/" << dataset;
            over_gi.push_back(gi / gds);
            over_gunrock.push_back(gpu / gds);
        }
    }
    ASSERT_EQ(over_gi.size(), 30u);

    const double gm_gi = geometricMean(over_gi);
    const double gm_gunrock = geometricMean(over_gunrock);
    EXPECT_GE(gm_gi, 1.74);
    EXPECT_LE(gm_gi, 1.92);
    EXPECT_GE(gm_gunrock, 4.17);
    EXPECT_LE(gm_gunrock, 4.61);
}

} // namespace
} // namespace gds
