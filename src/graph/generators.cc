#include "graph/generators.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/bitutil.hh"
#include "common/error.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "graph/builder.hh"

namespace gds::graph
{

namespace
{

/**
 * Deterministic id scramble (bijective) so degree does not follow id.
 *
 * Two rounds of an invertible mix restricted to the smallest power-of-
 * two domain covering [0, num_vertices); when num_vertices is not a
 * power of two, out-of-range results are cycle-walked back into range.
 * The domain width, mask and shift depend only on the graph, so they
 * are derived once per graph; operator() is on the per-edge path.
 */
class Scrambler
{
  public:
    Scrambler(VertexId num_vertices, std::uint64_t mix_salt)
        : limit(num_vertices), salt(mix_salt)
    {
        std::uint64_t bits = 1;
        while ((1ULL << bits) < num_vertices)
            ++bits;
        mask = (1ULL << bits) - 1;
        shift = bits / 2 + 1;
    }

    VertexId
    operator()(VertexId v) const
    {
        std::uint64_t x = v;
        do {
            x = (x * 0x9e3779b97f4a7c15ULL + salt) & mask;
            x ^= x >> shift;
            x = (x * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL) & mask;
            x ^= x >> shift;
        } while (x >= limit);
        return static_cast<VertexId>(x);
    }

  private:
    std::uint64_t limit;
    std::uint64_t salt;
    std::uint64_t mask;
    std::uint64_t shift;
};

/**
 * Edges per generator chunk. Fixed (never derived from the job count) so
 * that chunk boundaries — and therefore every chunk's random stream —
 * are identical at any parallelism; jobs only decides how many chunks
 * run concurrently.
 */
constexpr std::size_t generatorChunkEdges = 1u << 16;

/** Independent per-chunk seed: counter-based, so chunk c's stream never
 *  depends on how many edges earlier chunks drew. */
std::uint64_t
chunkSeed(std::uint64_t seed, std::size_t chunk)
{
    SplitMix64 sm(seed + 0x632be59bd9b4e019ULL * (chunk + 1));
    return sm.next();
}

/**
 * Fill @p edges by running @p fill(rng) for every edge index, in
 * fixed-size chunks each with its own counter-seeded Rng. Every slot is
 * written exactly once, which is what lets a CooBuffer leave its pages
 * untouched until this parallel fill.
 */
template <typename FillFn>
void
generateChunked(CooBuffer &edges, std::uint64_t seed, unsigned jobs,
                const FillFn &fill)
{
    const std::size_t num_edges = edges.size();
    const std::size_t chunks =
        std::max<std::size_t>(1, ceilDiv(num_edges, generatorChunkEdges));
    const unsigned pool_jobs = jobs == 0 ? common::jobCount() : jobs;
    common::parallelFor(chunks, pool_jobs, [&](std::size_t c) {
        Rng rng(chunkSeed(seed, c));
        const std::size_t begin = c * generatorChunkEdges;
        const std::size_t end =
            std::min(num_edges, begin + generatorChunkEdges);
        for (std::size_t e = begin; e < end; ++e)
            edges[e] = fill(rng);
    });
}

} // namespace

namespace detail
{

std::uint64_t
uniformThreshold(double p)
{
    // Rng::uniform() is exactly u * 2^-53 for the 53-bit integer
    // u = next() >> 11, and ldexp scales by a power of two exactly, so
    // u * 2^-53 < p  <=>  u < p * 2^53  <=>  u < ceil(p * 2^53).
    if (!(p > 0.0))
        return 0; // never below p (also NaN)
    if (p >= 1.0)
        return 1ULL << 53; // always below p
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

RmatThresholds::RmatThresholds(const RmatParams &params)
{
    // The partial sums are formed as doubles in Graph500's order, so
    // every draw lands in the quadrant of the first-match chain
    // `r < a`, `r < a+b`, `r < a+b+c`. step() needs monotone thresholds;
    // the running maximum gives them without changing that chain's
    // answer when a partial sum decreases.
    const double sum_ab = params.a + params.b;
    const double sum_abc = sum_ab + params.c;
    a = uniformThreshold(params.a);
    ab = std::max(a, uniformThreshold(sum_ab));
    abc = std::max(ab, uniformThreshold(sum_abc));
}

} // namespace detail

Csr
rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
     const RmatParams &params, bool weighted, unsigned jobs)
{
    // 2^32 vertices would wrap the 32-bit vertex count to zero.
    gds_require(scale >= 1 && scale <= 31, ConfigError,
                "rmat scale %u unsupported", scale);
    const VertexId num_vertices = static_cast<VertexId>(1ULL << scale);
    const EdgeId num_edges =
        static_cast<EdgeId>(edge_factor) * num_vertices;

    CooBuffer edges(num_edges);
    const detail::RmatThresholds thresholds(params);
    const Scrambler scramble(num_vertices, seed ^ 0x5bd1);
    generateChunked(edges, seed, jobs, [&](Rng &rng) {
        VertexId src = 0;
        VertexId dst = 0;
        for (unsigned bit = 0; bit < scale; ++bit) {
            thresholds.step(rng.next() >> 11, src, dst);
        }
        const Weight w =
            weighted ? static_cast<Weight>(1 + rng.below(255)) : 1;
        return CooEdge{scramble(src), scramble(dst), w};
    });

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.jobs = jobs;
    return buildCsrFromBuffer(num_vertices, std::move(edges), opts);
}

Csr
powerLaw(VertexId num_vertices, EdgeId num_edges, double alpha,
         std::uint64_t seed, bool weighted, unsigned jobs)
{
    gds_require(num_vertices > 0, ConfigError, "need at least one vertex");
    gds_require(alpha > 0.0 && alpha < 1.0, ConfigError,
                "alpha must be in (0,1)");

    // Zipf sampling by inversion: endpoint rank r is drawn with density
    // proportional to r^-alpha, giving a heavy-tailed expected-degree
    // sequence without a V-sized cumulative table. Larger alpha means a
    // heavier tail; alpha in [0.5, 0.8] matches the hub sizes of the
    // paper's social/web graphs.
    const double s = alpha; // Zipf exponent in (0,1)
    const double v_pow = std::pow(static_cast<double>(num_vertices),
                                  1.0 - s);

    auto sample_rank = [&](Rng &rng) -> VertexId {
        // Inverse of the continuous Zipf CDF F(x) = (x^(1-s) - 1) /
        // (V^(1-s) - 1), x in [1, V].
        const double u = rng.uniform();
        const double x = std::pow(u * (v_pow - 1.0) + 1.0, 1.0 / (1.0 - s));
        VertexId rank = static_cast<VertexId>(x) - 1;
        return std::min(rank, num_vertices - 1);
    };

    CooBuffer edges(num_edges);
    const Scrambler scramble(num_vertices, seed ^ 0xfeed);
    generateChunked(edges, seed, jobs, [&](Rng &rng) {
        const VertexId src = scramble(sample_rank(rng));
        const VertexId dst = scramble(sample_rank(rng));
        const Weight w =
            weighted ? static_cast<Weight>(1 + rng.below(255)) : 1;
        return CooEdge{src, dst, w};
    });

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.jobs = jobs;
    return buildCsrFromBuffer(num_vertices, std::move(edges), opts);
}

Csr
uniform(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed,
        bool weighted, unsigned jobs)
{
    gds_require(num_vertices > 0, ConfigError, "need at least one vertex");
    CooBuffer edges(num_edges);
    generateChunked(edges, seed, jobs, [&](Rng &rng) {
        const auto src = static_cast<VertexId>(rng.below(num_vertices));
        const auto dst = static_cast<VertexId>(rng.below(num_vertices));
        const Weight w =
            weighted ? static_cast<Weight>(1 + rng.below(255)) : 1;
        return CooEdge{src, dst, w};
    });
    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.jobs = jobs;
    return buildCsrFromBuffer(num_vertices, std::move(edges), opts);
}

Csr
barabasiAlbert(VertexId num_vertices, unsigned edges_per_vertex,
               std::uint64_t seed, bool weighted)
{
    gds_require(edges_per_vertex >= 1, ConfigError,
                "need at least one edge per vertex");
    gds_require(num_vertices > edges_per_vertex, ConfigError,
               "need more vertices than edges per vertex");
    Rng rng(seed);

    // Degree-proportional sampling via the repeated-endpoints trick:
    // every endpoint of every edge goes into a pool; a uniform draw from
    // the pool is a degree-proportional draw over vertices.
    std::vector<VertexId> pool;
    pool.reserve(static_cast<std::size_t>(num_vertices) *
                 edges_per_vertex * 2);
    std::vector<CooEdge> edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) *
                  edges_per_vertex * 2);

    // Seed clique over the first m+1 vertices.
    for (VertexId u = 0; u <= edges_per_vertex; ++u) {
        for (VertexId v = u + 1; v <= edges_per_vertex; ++v) {
            edges.push_back(CooEdge{u, v, 1});
            edges.push_back(CooEdge{v, u, 1});
            pool.push_back(u);
            pool.push_back(v);
        }
    }

    for (VertexId u = edges_per_vertex + 1; u < num_vertices; ++u) {
        for (unsigned k = 0; k < edges_per_vertex; ++k) {
            const VertexId target = pool[rng.below(pool.size())];
            edges.push_back(CooEdge{u, target, 1});
            edges.push_back(CooEdge{target, u, 1});
            pool.push_back(u);
            pool.push_back(target);
        }
    }

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.removeDuplicates = true;
    if (weighted) {
        for (auto &e : edges)
            e.weight = static_cast<Weight>(1 + rng.below(255));
    }
    return buildCsr(num_vertices, std::move(edges), opts);
}

Csr
wattsStrogatz(VertexId num_vertices, unsigned ring_degree,
              double rewire_probability, std::uint64_t seed, bool weighted)
{
    gds_require(ring_degree >= 2 && ring_degree % 2 == 0, ConfigError,
               "ring degree must be even and >= 2");
    gds_require(num_vertices > ring_degree, ConfigError,
               "need more vertices than the ring degree");
    gds_require(rewire_probability >= 0.0 && rewire_probability <= 1.0,
                ConfigError,
               "rewire probability must be in [0,1]");
    Rng rng(seed);

    std::vector<CooEdge> edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) * ring_degree);
    for (VertexId u = 0; u < num_vertices; ++u) {
        for (unsigned k = 1; k <= ring_degree / 2; ++k) {
            VertexId v = static_cast<VertexId>(
                (static_cast<std::uint64_t>(u) + k) % num_vertices);
            if (rng.uniform() < rewire_probability) {
                // Rewire to a random endpoint (avoiding a self loop).
                do {
                    v = static_cast<VertexId>(rng.below(num_vertices));
                } while (v == u);
            }
            edges.push_back(CooEdge{u, v, 1});
            edges.push_back(CooEdge{v, u, 1});
        }
    }

    BuildOptions opts;
    opts.keepWeights = weighted;
    opts.removeDuplicates = true;
    if (weighted) {
        for (auto &e : edges)
            e.weight = static_cast<Weight>(1 + rng.below(255));
    }
    return buildCsr(num_vertices, std::move(edges), opts);
}

Csr
grid2d(VertexId width, VertexId height, std::uint64_t seed, bool weighted)
{
    gds_require(width > 0 && height > 0, ConfigError,
                "grid dimensions must be positive");
    const VertexId num_vertices = width * height;
    Rng rng(seed);
    std::vector<CooEdge> edges;
    edges.reserve(static_cast<std::size_t>(num_vertices) * 4);
    auto id = [width](VertexId x, VertexId y) { return y * width + x; };
    for (VertexId y = 0; y < height; ++y) {
        for (VertexId x = 0; x < width; ++x) {
            if (x + 1 < width) {
                edges.push_back(CooEdge{id(x, y), id(x + 1, y), 1});
                edges.push_back(CooEdge{id(x + 1, y), id(x, y), 1});
            }
            if (y + 1 < height) {
                edges.push_back(CooEdge{id(x, y), id(x, y + 1), 1});
                edges.push_back(CooEdge{id(x, y + 1), id(x, y), 1});
            }
        }
    }
    BuildOptions opts;
    opts.keepWeights = weighted;
    if (weighted) {
        for (auto &e : edges)
            e.weight = static_cast<Weight>(1 + rng.below(255));
    }
    return buildCsr(num_vertices, std::move(edges), opts);
}

} // namespace gds::graph
