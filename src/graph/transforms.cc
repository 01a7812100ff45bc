#include "graph/transforms.hh"

#include <algorithm>
#include <numeric>

#include "common/error.hh"
#include "graph/builder.hh"

namespace gds::graph
{

Csr
transpose(const Csr &g)
{
    const VertexId v_count = g.numVertices();
    CsrArray<EdgeId> offsets(static_cast<std::size_t>(v_count) + 1, 0);
    for (const VertexId dst : g.neighborArray())
        ++offsets[dst + 1];
    for (std::size_t v = 1; v < offsets.size(); ++v)
        offsets[v] += offsets[v - 1];

    CsrArray<VertexId> neighbors(g.numEdges());
    CsrArray<Weight> weights(g.hasWeights() ? g.numEdges() : 0);
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (VertexId u = 0; u < v_count; ++u) {
        const auto nbrs = g.neighborsOf(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const EdgeId slot = cursor[nbrs[i]]++;
            neighbors[slot] = u;
            if (g.hasWeights())
                weights[slot] = g.weightsOf(u)[i];
        }
    }
    return Csr(std::move(offsets), std::move(neighbors),
               std::move(weights));
}

Csr
symmetrize(const Csr &g)
{
    std::vector<CooEdge> edges;
    edges.reserve(2 * g.numEdges());
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        const auto nbrs = g.neighborsOf(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            const Weight w = g.hasWeights() ? g.weightsOf(u)[i] : 1;
            edges.push_back(CooEdge{u, nbrs[i], w});
            edges.push_back(CooEdge{nbrs[i], u, w});
        }
    }
    BuildOptions opts;
    opts.removeDuplicates = true;
    opts.keepWeights = g.hasWeights();
    return buildCsr(g.numVertices(), std::move(edges), opts);
}

Csr
degreeSortReorder(const Csr &g, std::vector<VertexId> *permutation)
{
    const VertexId v_count = g.numVertices();
    std::vector<VertexId> by_degree(v_count);
    std::iota(by_degree.begin(), by_degree.end(), 0);
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&g](VertexId a, VertexId b) {
                         return g.outDegree(a) > g.outDegree(b);
                     });
    std::vector<VertexId> perm(v_count);
    for (VertexId rank = 0; rank < v_count; ++rank)
        perm[by_degree[rank]] = rank;
    if (permutation)
        *permutation = perm;
    return applyPermutation(g, perm);
}

Csr
applyPermutation(const Csr &g, const std::vector<VertexId> &permutation)
{
    gds_require(permutation.size() == g.numVertices(), ConfigError,
               "permutation size %zu != |V| %u", permutation.size(),
               g.numVertices());
    std::vector<CooEdge> edges;
    edges.reserve(g.numEdges());
    for (VertexId u = 0; u < g.numVertices(); ++u) {
        const auto nbrs = g.neighborsOf(u);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
            edges.push_back(CooEdge{
                permutation[u], permutation[nbrs[i]],
                g.hasWeights() ? g.weightsOf(u)[i] : Weight{1}});
        }
    }
    BuildOptions opts;
    opts.keepWeights = g.hasWeights();
    return buildCsr(g.numVertices(), std::move(edges), opts);
}

std::vector<std::uint64_t>
inDegrees(const Csr &g)
{
    std::vector<std::uint64_t> degrees(g.numVertices(), 0);
    for (const VertexId dst : g.neighborArray())
        ++degrees[dst];
    return degrees;
}

std::uint64_t
countWeakComponents(const Csr &g)
{
    const VertexId v_count = g.numVertices();
    std::vector<VertexId> parent(v_count);
    std::iota(parent.begin(), parent.end(), 0);
    auto find = [&parent](VertexId x) {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    };
    for (VertexId u = 0; u < v_count; ++u) {
        for (const VertexId v : g.neighborsOf(u)) {
            const VertexId ru = find(u);
            const VertexId rv = find(v);
            if (ru != rv)
                parent[std::max(ru, rv)] = std::min(ru, rv);
        }
    }
    std::uint64_t roots = 0;
    for (VertexId v = 0; v < v_count; ++v) {
        if (find(v) == v)
            ++roots;
    }
    return roots;
}

} // namespace gds::graph
