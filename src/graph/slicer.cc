#include "graph/slicer.hh"

#include "common/bitutil.hh"
#include "common/error.hh"

namespace gds::graph
{

VertexId
numSlices(VertexId num_vertices, VertexId max_dst_vertices)
{
    gds_require(max_dst_vertices > 0, ConfigError,
                "slice capacity must be positive");
    if (num_vertices == 0)
        return 1;
    return static_cast<VertexId>(
        ceilDiv<std::uint64_t>(num_vertices, max_dst_vertices));
}

std::vector<Slice>
sliceByDestination(const Csr &graph, VertexId max_dst_vertices)
{
    const VertexId v_count = graph.numVertices();
    const VertexId slice_count = numSlices(v_count, max_dst_vertices);
    std::vector<Slice> slices;
    slices.reserve(slice_count);

    const bool weighted = graph.hasWeights();
    for (VertexId s = 0; s < slice_count; ++s) {
        const VertexId lo = s * max_dst_vertices;
        const VertexId hi =
            std::min<std::uint64_t>(static_cast<std::uint64_t>(lo) +
                                        max_dst_vertices,
                                    v_count);

        CsrArray<EdgeId> offsets(static_cast<std::size_t>(v_count) + 1, 0);
        CsrArray<VertexId> neighbors;
        CsrArray<Weight> weights;
        for (VertexId u = 0; u < v_count; ++u) {
            const auto nbrs = graph.neighborsOf(u);
            for (std::size_t i = 0; i < nbrs.size(); ++i) {
                const VertexId dst = nbrs[i];
                if (dst >= lo && dst < hi) {
                    neighbors.push_back(dst);
                    if (weighted)
                        weights.push_back(graph.weightsOf(u)[i]);
                }
            }
            offsets[u + 1] = neighbors.size();
        }
        slices.push_back(Slice{lo, hi,
                               Csr(std::move(offsets), std::move(neighbors),
                                   std::move(weights))});
    }
    return slices;
}

} // namespace gds::graph
