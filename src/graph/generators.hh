/**
 * @file
 * Deterministic synthetic graph generators.
 *
 * - rmat(): the Graph500 recursive-matrix generator, used for the paper's
 *   RMAT scale 22-26 scalability study (Fig. 14f).
 * - powerLaw(): a Chung-Lu style generator with Zipf-distributed expected
 *   degrees; used to build surrogates of the paper's six real-world graphs
 *   (Table 4) with matching |V|, |E| and heavy-tailed degree skew.
 * - uniform(): Erdos-Renyi G(n, m), used as a low-skew control in tests.
 */

#pragma once

#include <cstdint>

#include "graph/csr.hh"

namespace gds::graph
{

/** Parameters of the RMAT recursive partition. Graph500 defaults. */
struct RmatParams
{
    double a = 0.57;
    double b = 0.19;
    double c = 0.19;
    // d = 1 - a - b - c
};

namespace detail
{

/**
 * The integer form of `Rng::uniform() < p`: for the draw's top 53 bits
 * u = next() >> 11, `u < uniformThreshold(p)` holds exactly when
 * uniform() would have returned a value below p.
 */
std::uint64_t uniformThreshold(double p);

/**
 * One RMAT recursion step on integer thresholds. The first-match chain
 * over r = u * 2^-53 (r < a: quadrant (0,0); r < a+b: (0,1); r < a+b+c:
 * (1,0); else (1,1)) becomes three compares and no branch: with
 * x1 = u >= a, x2 = u >= ab and x3 = u >= abc, the source bit is x2 and
 * the destination bit is x1 ^ x2 ^ x3.
 */
struct RmatThresholds
{
    explicit RmatThresholds(const RmatParams &params);

    /** Append the quadrant bits of the 53-bit draw @p u to src and dst. */
    void
    step(std::uint64_t u, VertexId &src, VertexId &dst) const
    {
        const VertexId x1 = u >= a;
        const VertexId x2 = u >= ab;
        const VertexId x3 = u >= abc;
        src = (src << 1) | x2;
        dst = (dst << 1) | (x1 ^ x2 ^ x3);
    }

    std::uint64_t a;
    std::uint64_t ab;
    std::uint64_t abc;
};

} // namespace detail

/**
 * Generate an RMAT graph with 2^scale vertices and edge_factor * 2^scale
 * directed edges (scale in [1, 31]). Vertex ids are scrambled so degree does not correlate
 * with id (as Graph500 requires).
 *
 * Edges are generated in fixed-size chunks, each from its own
 * counter-seeded generator, so the output is identical at every job
 * count (0 = the GDS_JOBS/hardware policy, 1 = strictly serial).
 */
Csr rmat(unsigned scale, unsigned edge_factor, std::uint64_t seed,
         const RmatParams &params = {}, bool weighted = false,
         unsigned jobs = 0);

/**
 * Generate a Chung-Lu power-law graph: endpoints sampled independently
 * from a Zipf(alpha) distribution over vertex ids (then scrambled).
 *
 * @param num_vertices |V|
 * @param num_edges |E| directed edges
 * @param alpha Zipf exponent in (0,1); larger alpha = heavier degree tail;
 *        0.5-0.8 produces social-network-like skew
 *
 * Chunked and counter-seeded like rmat(): identical output at every
 * job count.
 */
Csr powerLaw(VertexId num_vertices, EdgeId num_edges, double alpha,
             std::uint64_t seed, bool weighted = false,
             unsigned jobs = 0);

/** Generate a uniform Erdos-Renyi G(n, m) multigraph. */
Csr uniform(VertexId num_vertices, EdgeId num_edges, std::uint64_t seed,
            bool weighted = false, unsigned jobs = 0);

/**
 * Generate a two-dimensional grid/mesh graph (road-network-like: bounded
 * degree, large diameter) with bidirectional edges between 4-neighbours.
 */
Csr grid2d(VertexId width, VertexId height, std::uint64_t seed,
           bool weighted = false);

/**
 * Barabasi-Albert preferential attachment: each new vertex attaches
 * @p edges_per_vertex undirected edges to existing vertices with
 * probability proportional to their current degree. Produces the
 * canonical p(d) ~ d^-3 power law with a connected core.
 */
Csr barabasiAlbert(VertexId num_vertices, unsigned edges_per_vertex,
                   std::uint64_t seed, bool weighted = false);

/**
 * Watts-Strogatz small world: a ring lattice of degree @p ring_degree
 * (even) with each edge rewired to a random endpoint with probability
 * @p rewire_probability. High clustering, low diameter, near-uniform
 * degrees -- the low-skew counterpoint to the social-network surrogates.
 */
Csr wattsStrogatz(VertexId num_vertices, unsigned ring_degree,
                  double rewire_probability, std::uint64_t seed,
                  bool weighted = false);

} // namespace gds::graph
