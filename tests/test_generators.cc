/**
 * @file
 * Tests for the synthetic graph generators: determinism, size contracts,
 * degree-skew properties (power law vs uniform), grid structure, and
 * golden digests that pin the exact bytes of every chunked generator.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <tuple>
#include <vector>

#include "common/bitutil.hh"
#include "common/error.hh"
#include "expect_error.hh"
#include "span_eq.hh"
#include "graph/generators.hh"

namespace gds::graph
{
namespace
{

TEST(Rmat, SizeContract)
{
    const Csr g = rmat(10, 8, 1);
    EXPECT_EQ(g.numVertices(), 1024u);
    EXPECT_EQ(g.numEdges(), 8192u);
    EXPECT_FALSE(g.hasWeights());
}

TEST(Rmat, DeterministicForSeed)
{
    const Csr a = rmat(8, 8, 42);
    const Csr b = rmat(8, 8, 42);
    const Csr c = rmat(8, 8, 43);
    EXPECT_SPAN_EQ(a.neighborArray(), b.neighborArray());
    EXPECT_SPAN_NE(a.neighborArray(), c.neighborArray());
}

TEST(Rmat, WeightedVariantHasWeightsInRange)
{
    const Csr g = rmat(8, 4, 7, {}, true);
    ASSERT_TRUE(g.hasWeights());
    for (const Weight w : g.weightArray()) {
        EXPECT_GE(w, 1u);
        EXPECT_LE(w, 255u);
    }
}

TEST(Rmat, SkewedDegreeDistribution)
{
    const Csr g = rmat(12, 16, 5);
    const DegreeStats ds = g.degreeStats();
    // RMAT hubs: max degree far above the mean.
    EXPECT_GT(ds.maxDegree, static_cast<std::uint64_t>(8 * ds.meanDegree));
}

TEST(RmatErrors, ScaleOutOfRange)
{
    EXPECT_TYPED_ERROR((void)rmat(0, 4, 1), ConfigError, "scale 0");
    // 2^32 vertices do not fit a 32-bit vertex count; this used to
    // return an empty graph.
    EXPECT_TYPED_ERROR((void)rmat(32, 1, 1), ConfigError, "scale 32");
}

TEST(PowerLaw, SizeContract)
{
    const Csr g = powerLaw(5000, 40000, 0.6, 3);
    EXPECT_EQ(g.numVertices(), 5000u);
    EXPECT_EQ(g.numEdges(), 40000u);
}

TEST(PowerLaw, DeterministicForSeed)
{
    const Csr a = powerLaw(1000, 8000, 0.6, 11);
    const Csr b = powerLaw(1000, 8000, 0.6, 11);
    EXPECT_SPAN_EQ(a.neighborArray(), b.neighborArray());
}

TEST(PowerLaw, MoreSkewedThanUniform)
{
    const Csr pl = powerLaw(10000, 160000, 0.6, 1);
    const Csr un = uniform(10000, 160000, 1);
    EXPECT_GT(pl.degreeStats().maxDegree, 2 * un.degreeStats().maxDegree);
}

TEST(PowerLaw, HigherAlphaMeansHeavierTail)
{
    const Csr light = powerLaw(10000, 160000, 0.4, 1);
    const Csr heavy = powerLaw(10000, 160000, 0.8, 1);
    EXPECT_GT(heavy.degreeStats().maxDegree,
              light.degreeStats().maxDegree);
}

TEST(Uniform, SizeAndLowSkew)
{
    const Csr g = uniform(4096, 65536, 9);
    EXPECT_EQ(g.numVertices(), 4096u);
    EXPECT_EQ(g.numEdges(), 65536u);
    // Poisson(16): max degree stays within a small factor of the mean.
    EXPECT_LT(g.degreeStats().maxDegree, 64u);
}

TEST(Grid2d, StructureAndDegrees)
{
    const Csr g = grid2d(5, 4, 1);
    EXPECT_EQ(g.numVertices(), 20u);
    // Bidirectional 4-neighbour mesh: 2*(w-1)*h + 2*w*(h-1) edges.
    EXPECT_EQ(g.numEdges(), 2u * 4 * 4 + 2u * 5 * 3);
    const DegreeStats ds = g.degreeStats();
    EXPECT_EQ(ds.minDegree, 2u); // corners
    EXPECT_EQ(ds.maxDegree, 4u); // interior
}

TEST(BarabasiAlbert, SizeAndConnectivity)
{
    const Csr g = barabasiAlbert(2000, 4, 3);
    EXPECT_EQ(g.numVertices(), 2000u);
    // Each non-seed vertex adds up to 4 undirected (=8 directed) edges,
    // minus duplicates.
    EXPECT_GT(g.numEdges(), 2000u * 4);
    EXPECT_LE(g.numEdges(), 2000u * 8);
    // Preferential attachment keeps everything in one component.
    const DegreeStats ds = g.degreeStats();
    EXPECT_GE(ds.minDegree, 1u);
}

TEST(BarabasiAlbert, HeavyTailedDegrees)
{
    const Csr g = barabasiAlbert(5000, 4, 5);
    const DegreeStats ds = g.degreeStats();
    EXPECT_GT(ds.maxDegree, static_cast<std::uint64_t>(8 * ds.meanDegree));
}

TEST(BarabasiAlbert, Deterministic)
{
    const Csr a = barabasiAlbert(1000, 3, 7);
    const Csr b = barabasiAlbert(1000, 3, 7);
    EXPECT_SPAN_EQ(a.neighborArray(), b.neighborArray());
}

TEST(BarabasiAlbertErrors, BadParameters)
{
    EXPECT_TYPED_ERROR((void)barabasiAlbert(3, 4, 1), ConfigError,
                       "more vertices");
    EXPECT_TYPED_ERROR((void)barabasiAlbert(10, 0, 1), ConfigError,
                       "at least one");
}

TEST(WattsStrogatz, RingWithoutRewiring)
{
    const Csr g = wattsStrogatz(100, 4, 0.0, 1);
    EXPECT_EQ(g.numVertices(), 100u);
    // Pure ring lattice: every vertex has exactly degree 4.
    const DegreeStats ds = g.degreeStats();
    EXPECT_EQ(ds.minDegree, 4u);
    EXPECT_EQ(ds.maxDegree, 4u);
}

TEST(WattsStrogatz, RewiringKeepsNearUniformDegrees)
{
    const Csr g = wattsStrogatz(2000, 8, 0.2, 3);
    const DegreeStats ds = g.degreeStats();
    // Small-world rewiring perturbs degrees only slightly.
    EXPECT_LT(ds.maxDegree, 3 * 8u);
    EXPECT_GE(ds.minDegree, 4u);
}

TEST(WattsStrogatz, SymmetricEdges)
{
    const Csr g = wattsStrogatz(200, 4, 0.3, 5);
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        for (const VertexId v : g.neighborsOf(u)) {
            const auto back = g.neighborsOf(v);
            ASSERT_NE(std::find(back.begin(), back.end(), u), back.end());
        }
    }
}

TEST(WattsStrogatzErrors, BadParameters)
{
    EXPECT_TYPED_ERROR((void)wattsStrogatz(100, 3, 0.1, 1), ConfigError,
                       "even");
    EXPECT_TYPED_ERROR((void)wattsStrogatz(100, 4, 1.5, 1), ConfigError,
                       "probability");
}

/** FNV-1a of a CSR array's bytes. */
template <typename T>
std::uint64_t
digest(std::span<const T> array)
{
    return fnv1a64(array.data(), array.size_bytes());
}

TEST(Generators, GoldenDigests)
{
    // Recorded from the double-compare RMAT walk and the per-call
    // scramble (b85bec1). Dataset caches, tests/golden_cycles.json and
    // perfbench/golden_matrix.json all rest on these bytes: a generator
    // change that moves any of them is a model change, not a speed-up.
    // An unweighted graph's weight digest is FNV-1a's empty-input basis.
    struct Golden
    {
        const char *call;
        std::function<Csr()> make;
        std::uint64_t offsets, neighbors, weights;
    };
    const std::vector<Golden> goldens = {
        {"rmat(10, 8, 42, {}, true)",
         [] { return rmat(10, 8, 42, {}, true); }, 0x6c125c5a5476aa9bULL,
         0xf6add9927837f2dcULL, 0xf04744a6dde917ddULL},
        {"rmat(12, 16, 222, {}, false)",
         [] { return rmat(12, 16, 222, {}, false); },
         0xd4005895b3b028c1ULL, 0x5da42abcb9199647ULL,
         0xcbf29ce484222325ULL},
        {"rmat(14, 16, 222, {}, true)", // four generator chunks
         [] { return rmat(14, 16, 222, {}, true); },
         0x9f25ed79d4467d8dULL, 0xa334d4c2510bd7a1ULL,
         0x57f6f6c6256772b6ULL},
        {"rmat(9, 4, 5, {0.45, 0.25, 0.15}, true)",
         [] { return rmat(9, 4, 5, {0.45, 0.25, 0.15}, true); },
         0x8c4636f17eccf273ULL, 0xa4caf861292c1900ULL,
         0x80d0c90988b24a02ULL},
        {"rmat(8, 8, 17, {0.6, -0.1, 0.3}, false)", // a+b < a
         [] { return rmat(8, 8, 17, {0.6, -0.1, 0.3}, false); },
         0xbcd0f12197f7acdeULL, 0x7d03734a3c35ef18ULL,
         0xcbf29ce484222325ULL},
        {"rmat(6, 8, 3, {1.0, 0.0, 0.0}, false)",
         [] { return rmat(6, 8, 3, {1.0, 0.0, 0.0}, false); },
         0xce6d240066474b45ULL, 0xde7cf376b37c8325ULL,
         0xcbf29ce484222325ULL},
        {"rmat(1, 4, 9, {}, true)", [] { return rmat(1, 4, 9, {}, true); },
         0x17a4a3af7de0a48fULL, 0x0ffd6620875d34d4ULL,
         0x9807806cb4daa3f7ULL},
        {"powerLaw(2000, 30000, 0.6, 7, true)",
         [] { return powerLaw(2000, 30000, 0.6, 7, true); },
         0xbc85b43c4e8490f8ULL, 0x72a399f8171abeeeULL,
         0x2c65c8614732cdcbULL},
        // Vertex counts that are not a power of two run the cycle-walk.
        {"powerLaw(1000, 12000, 0.72, 105, false)",
         [] { return powerLaw(1000, 12000, 0.72, 105, false); },
         0x186e6fc3c381ff6dULL, 0x749e019234f5ffb3ULL,
         0xcbf29ce484222325ULL},
        {"powerLaw(3000, 200000, 0.7, 101, true)",
         [] { return powerLaw(3000, 200000, 0.7, 101, true); },
         0xd50b75c6dcd6dd19ULL, 0xce3b7a889bb19006ULL,
         0xf4649ef0f0c2cdd4ULL},
        {"powerLaw(4096, 20000, 0.55, 13, false)",
         [] { return powerLaw(4096, 20000, 0.55, 13, false); },
         0x378f3bdce7092bccULL, 0x8e5d7697f068341bULL,
         0xcbf29ce484222325ULL},
        // The narrowest scramble domains: 3 bits over 5 ids, and 1 bit.
        {"powerLaw(5, 64, 0.5, 3, true)",
         [] { return powerLaw(5, 64, 0.5, 3, true); },
         0x58c3b6fda276ddd2ULL, 0xc38f5b3cfd7117d4ULL,
         0xca5bf517bf399c25ULL},
        {"powerLaw(1, 16, 0.5, 1, false)",
         [] { return powerLaw(1, 16, 0.5, 1, false); },
         0x77cc904a0ff40675ULL, 0xb9b23f3a46fd0825ULL,
         0xcbf29ce484222325ULL},
        {"uniform(1500, 20000, 9, false)",
         [] { return uniform(1500, 20000, 9, false); },
         0xd286899087e03ebbULL, 0xc14bb6d76f91d1b6ULL,
         0xcbf29ce484222325ULL},
    };
    for (const Golden &golden : goldens) {
        SCOPED_TRACE(golden.call);
        const Csr g = golden.make();
        EXPECT_EQ(digest(g.offsetArray()), golden.offsets);
        EXPECT_EQ(digest(g.neighborArray()), golden.neighbors);
        EXPECT_EQ(digest(g.weightArray()), golden.weights);
    }
}

/** The 53-bit draw u as Rng::uniform() returns it. */
double
drawAsDouble(std::uint64_t u)
{
    return static_cast<double>(u) * 0x1.0p-53;
}

/** The draws next to threshold @p t that lie in the 53-bit range. */
std::vector<std::uint64_t>
drawsAround(std::uint64_t t)
{
    std::vector<std::uint64_t> draws;
    for (const std::uint64_t u : {t - 1, t, t + 1}) {
        if (u < (1ULL << 53))
            draws.push_back(u);
    }
    return draws;
}

TEST(Generators, UniformThresholdMatchesDoubleCompare)
{
    const double probabilities[] = {
        0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.25, 0.5, 1e-300, 1e-17,
        0x1.0p-53, 1.0 - 0x1.0p-53, 0.0, -0.5, 1.0, 1.5,
        std::numeric_limits<double>::quiet_NaN()};
    for (const double p : probabilities) {
        const std::uint64_t t = detail::uniformThreshold(p);
        SCOPED_TRACE(testing::Message() << "p=" << p << " t=" << t);
        std::vector<std::uint64_t> draws = drawsAround(t);
        draws.push_back(0);
        draws.push_back((1ULL << 53) - 1);
        for (const std::uint64_t u : draws)
            EXPECT_EQ(u < t, drawAsDouble(u) < p) << "u=" << u;
    }
}

TEST(Generators, RmatThresholdBoundaries)
{
    // The first-match double chain the integer walk replaced.
    const auto chain = [](const RmatParams &params, double r) {
        const double ab = params.a + params.b;
        const double abc = ab + params.c;
        if (r < params.a)
            return std::pair<VertexId, VertexId>{0, 0};
        if (r < ab)
            return std::pair<VertexId, VertexId>{0, 1};
        if (r < abc)
            return std::pair<VertexId, VertexId>{1, 0};
        return std::pair<VertexId, VertexId>{1, 1};
    };
    const RmatParams param_sets[] = {
        {},                 // Graph500 0.57 / 0.19 / 0.19
        {0.45, 0.25, 0.15}, // distinct partial sums
        {0.25, 0.25, 0.25}, // thresholds exact in binary
        {0.6, -0.1, 0.3},   // a + b below a
        {0.5, 0.3, -0.4},   // a + b + c below a + b and a
        {1.0, 0.0, 0.0},    // every draw in quadrant (0,0)
        {0.0, 0.0, 0.0},    // every draw in quadrant (1,1)
    };
    for (const RmatParams &params : param_sets) {
        const detail::RmatThresholds thresholds(params);
        SCOPED_TRACE(testing::Message() << "a=" << params.a << " b="
                                        << params.b << " c=" << params.c);
        for (const std::uint64_t t :
             {thresholds.a, thresholds.ab, thresholds.abc}) {
            for (const std::uint64_t u : drawsAround(t)) {
                VertexId src = 0;
                VertexId dst = 0;
                thresholds.step(u, src, dst);
                const auto [want_src, want_dst] =
                    chain(params, drawAsDouble(u));
                EXPECT_EQ(src, want_src) << "u=" << u;
                EXPECT_EQ(dst, want_dst) << "u=" << u;
            }
        }
    }
}

/** Degree-preservation sweep across generator families. */
class GeneratorSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(GeneratorSweep, RmatEdgeCountScalesWithParams)
{
    const auto [scale, edge_factor] = GetParam();
    const Csr g = rmat(scale, edge_factor, 77);
    EXPECT_EQ(g.numVertices(), 1ULL << scale);
    EXPECT_EQ(g.numEdges(),
              (1ULL << scale) * static_cast<EdgeId>(edge_factor));
    // All destinations in range is enforced by Csr's constructor; reaching
    // here means the generator produced a structurally valid graph.
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndFactors, GeneratorSweep,
    ::testing::Combine(::testing::Values(6u, 8u, 10u, 12u),
                       ::testing::Values(4u, 8u, 16u)));

} // namespace
} // namespace gds::graph
