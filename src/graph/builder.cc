#include "graph/builder.hh"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "common/bitutil.hh"
#include "common/error.hh"
#include "common/parallel.hh"

namespace gds::graph
{

namespace
{

/** Below this many edges a thread pool costs more than it saves. */
constexpr std::size_t parallelGrainEdges = 1u << 15;

/**
 * Cap on the per-chunk histogram scratch (chunks × V × 4 bytes); beyond
 * it the chunk count is reduced rather than letting the scratch rival
 * the graph itself.
 */
constexpr std::uint64_t histogramByteBudget = 512ULL << 20;

/** Edge-index range [begin, end) of chunk c out of @p chunks. */
std::pair<std::size_t, std::size_t>
chunkRange(std::size_t total, std::size_t chunks, std::size_t c)
{
    const std::size_t per = ceilDiv(total, chunks);
    const std::size_t begin = std::min(total, c * per);
    return {begin, std::min(total, begin + per)};
}

/**
 * Number of edge/vertex chunks to use for @p num_edges edges: the job
 * policy, capped by the work grain and the histogram scratch budget.
 * The chunk count never changes the output, only the parallelism.
 */
std::size_t
chunkCount(std::size_t num_edges, VertexId num_vertices, unsigned jobs)
{
    const unsigned policy = jobs == 0 ? common::jobCount() : jobs;
    std::size_t chunks = std::max<std::size_t>(1, policy);
    chunks = std::min(chunks,
                      std::max<std::size_t>(
                          1, num_edges / parallelGrainEdges));
    const std::uint64_t per_chunk_bytes =
        (static_cast<std::uint64_t>(num_vertices) + 1) *
        sizeof(std::uint32_t);
    if (per_chunk_bytes > 0) {
        chunks = std::min<std::size_t>(
            chunks, std::max<std::uint64_t>(
                        1, histogramByteBudget / per_chunk_bytes));
    }
    return chunks;
}

/** Classic serial counting sort with 64-bit cursors, for edge lists too
 *  large for the chunked path's 32-bit scatter cursors. */
Csr
buildCsrSerialWide(VertexId num_vertices, std::span<const CooEdge> edges,
                   bool keep_weights)
{
    CsrArray<EdgeId> offsets(static_cast<std::size_t>(num_vertices) + 1, 0);
    for (const CooEdge &e : edges) {
        gds_require(e.src < num_vertices && e.dst < num_vertices,
                    CorruptInputError, "edge (%u,%u) out of range (V=%u)",
                    e.src, e.dst, num_vertices);
        ++offsets[e.src + 1];
    }
    for (std::size_t v = 1; v < offsets.size(); ++v)
        offsets[v] += offsets[v - 1];

    CsrArray<VertexId> neighbors(edges.size());
    CsrArray<Weight> weights(keep_weights ? edges.size() : 0);
    std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
    for (const CooEdge &e : edges) {
        const EdgeId slot = cursor[e.src]++;
        neighbors[slot] = e.dst;
        if (keep_weights)
            weights[slot] = e.weight;
    }
    return Csr(std::move(offsets), std::move(neighbors),
               std::move(weights));
}

/** Collapse duplicate destinations per vertex; see buildCsr(). */
Csr
dedupePerVertex(VertexId num_vertices, CsrArray<EdgeId> offsets,
                CsrArray<VertexId> neighbors, CsrArray<Weight> weights,
                bool keep_weights, unsigned jobs)
{
    const std::size_t blocks =
        chunkCount(neighbors.size(), num_vertices, jobs);
    const unsigned pool_jobs = static_cast<unsigned>(blocks);

    // Pass 1: per-vertex sort + in-place compaction. Each vertex's slice
    // [offsets[v], offsets[v+1]) is touched by exactly one block, so the
    // compacted prefixes can be written back without synchronisation.
    std::vector<std::uint32_t> deduped_degree(num_vertices, 0);
    common::parallelFor(blocks, pool_jobs, [&](std::size_t b) {
        const auto [v_begin, v_end] = chunkRange(num_vertices, blocks, b);
        std::vector<std::pair<VertexId, Weight>> slice;
        for (std::size_t v = v_begin; v < v_end; ++v) {
            const EdgeId begin = offsets[v];
            const EdgeId end = offsets[v + 1];
            slice.clear();
            slice.reserve(end - begin);
            for (EdgeId e = begin; e < end; ++e) {
                slice.emplace_back(neighbors[e],
                                   keep_weights ? weights[e] : Weight{1});
            }
            // Stable: the first weight seen for a destination survives.
            std::stable_sort(slice.begin(), slice.end(),
                             [](const auto &a, const auto &b2) {
                                 return a.first < b2.first;
                             });
            EdgeId out = begin;
            VertexId last = invalidVertex;
            for (const auto &[dst, w] : slice) {
                if (dst == last)
                    continue;
                last = dst;
                neighbors[out] = dst;
                if (keep_weights)
                    weights[out] = w;
                ++out;
            }
            deduped_degree[v] = static_cast<std::uint32_t>(out - begin);
        }
    });

    // Pass 2: serial prefix sum over the deduplicated degrees.
    CsrArray<EdgeId> new_offsets(static_cast<std::size_t>(num_vertices) + 1,
                                 0);
    for (VertexId v = 0; v < num_vertices; ++v)
        new_offsets[v + 1] = new_offsets[v] + deduped_degree[v];

    // Pass 3: gather the compacted prefixes into dense arrays.
    const EdgeId new_edge_count = new_offsets[num_vertices];
    CsrArray<VertexId> new_neighbors(new_edge_count);
    CsrArray<Weight> new_weights(keep_weights ? new_edge_count : 0);
    common::parallelFor(blocks, pool_jobs, [&](std::size_t b) {
        const auto [v_begin, v_end] = chunkRange(num_vertices, blocks, b);
        for (std::size_t v = v_begin; v < v_end; ++v) {
            const EdgeId src_begin = offsets[v];
            const EdgeId dst_begin = new_offsets[v];
            const std::uint32_t degree = deduped_degree[v];
            std::copy_n(neighbors.begin() +
                            static_cast<std::ptrdiff_t>(src_begin),
                        degree,
                        new_neighbors.begin() +
                            static_cast<std::ptrdiff_t>(dst_begin));
            if (keep_weights) {
                std::copy_n(weights.begin() +
                                static_cast<std::ptrdiff_t>(src_begin),
                            degree,
                            new_weights.begin() +
                                static_cast<std::ptrdiff_t>(dst_begin));
            }
        }
    });

    return Csr(std::move(new_offsets), std::move(new_neighbors),
               std::move(new_weights));
}

/** buildCsr() for either edge-list container; consumes @p edges. */
template <typename EdgeList>
Csr
buildFromEdges(VertexId num_vertices, EdgeList &edges,
               const BuildOptions &opts)
{
    if (opts.removeSelfLoops) {
        std::erase_if(edges,
                      [](const CooEdge &e) { return e.src == e.dst; });
    }

    const std::size_t num_edges = edges.size();
    if (num_edges >= UINT32_MAX) {
        // The chunked path's scatter cursors are 32-bit; >4G edges take
        // the wide serial path (the same stable counting sort, so the
        // result is still identical).
        Csr g = buildCsrSerialWide(num_vertices, edges, opts.keepWeights);
        edges.clear();
        edges.shrink_to_fit();
        if (!opts.removeDuplicates)
            return g;
        // Csr arrays are immutable; re-extract for the dedup pass.
        CsrArray<EdgeId> o(g.offsetArray().begin(), g.offsetArray().end());
        CsrArray<VertexId> n(g.neighborArray().begin(),
                             g.neighborArray().end());
        CsrArray<Weight> w(g.weightArray().begin(), g.weightArray().end());
        return dedupePerVertex(num_vertices, std::move(o), std::move(n),
                               std::move(w), opts.keepWeights, opts.jobs);
    }
    const std::size_t chunks =
        chunkCount(num_edges, num_vertices, opts.jobs);
    const unsigned pool_jobs = static_cast<unsigned>(chunks);

    // Pass 1: per-chunk degree histograms (plus endpoint validation).
    // Chunks partition the edge list in order; each chunk only writes its
    // own histogram.
    std::vector<std::vector<std::uint32_t>> chunk_counts(chunks);
    common::parallelFor(chunks, pool_jobs, [&](std::size_t c) {
        auto &counts = chunk_counts[c];
        counts.assign(num_vertices, 0);
        const auto [begin, end] = chunkRange(num_edges, chunks, c);
        for (std::size_t e = begin; e < end; ++e) {
            const CooEdge &edge = edges[e];
            gds_require(edge.src < num_vertices &&
                            edge.dst < num_vertices,
                        CorruptInputError,
                        "edge (%u,%u) out of range (V=%u)", edge.src,
                        edge.dst, num_vertices);
            ++counts[edge.src];
        }
    });

    // Pass 2: blocked prefix sum. Block totals first (parallel), a serial
    // exclusive scan over the (few) block totals, then each block turns
    // its histogram columns into absolute scatter cursors: chunk c's
    // first edge for vertex v lands at offsets[v] plus everything chunks
    // before c contribute to v. That equality with the serial counting
    // sort's cursor is what makes the output byte-identical. The blocks
    // cover [0, V), so with offsets[V] below every offset is written here.
    CsrArray<EdgeId> offsets(static_cast<std::size_t>(num_vertices) + 1);
    std::vector<EdgeId> block_total(chunks, 0);
    common::parallelFor(chunks, pool_jobs, [&](std::size_t b) {
        const auto [v_begin, v_end] = chunkRange(num_vertices, chunks, b);
        EdgeId total = 0;
        for (std::size_t v = v_begin; v < v_end; ++v) {
            for (std::size_t c = 0; c < chunks; ++c)
                total += chunk_counts[c][v];
        }
        block_total[b] = total;
    });
    std::vector<EdgeId> block_base(chunks, 0);
    for (std::size_t b = 1; b < chunks; ++b)
        block_base[b] = block_base[b - 1] + block_total[b - 1];
    common::parallelFor(chunks, pool_jobs, [&](std::size_t b) {
        const auto [v_begin, v_end] = chunkRange(num_vertices, chunks, b);
        EdgeId running = block_base[b];
        for (std::size_t v = v_begin; v < v_end; ++v) {
            offsets[v] = running;
            for (std::size_t c = 0; c < chunks; ++c) {
                const std::uint32_t count = chunk_counts[c][v];
                chunk_counts[c][v] = static_cast<std::uint32_t>(running);
                running += count;
            }
        }
    });
    offsets[num_vertices] = num_edges;

    // Pass 3: scatter. Cursor slots are disjoint across chunks by
    // construction, so concurrent writes never touch the same index, and
    // the cursors cover every slot exactly once: the scatter is the first
    // write to the (uninitialised) edge arrays.
    CsrArray<VertexId> neighbors(num_edges);
    CsrArray<Weight> weights(opts.keepWeights ? num_edges : 0);
    common::parallelFor(chunks, pool_jobs, [&](std::size_t c) {
        auto &cursor = chunk_counts[c];
        const auto [begin, end] = chunkRange(num_edges, chunks, c);
        for (std::size_t e = begin; e < end; ++e) {
            const CooEdge &edge = edges[e];
            const EdgeId slot = cursor[edge.src]++;
            neighbors[slot] = edge.dst;
            if (opts.keepWeights)
                weights[slot] = edge.weight;
        }
    });
    chunk_counts.clear();
    edges.clear();
    edges.shrink_to_fit();

    if (!opts.removeDuplicates)
        return Csr(std::move(offsets), std::move(neighbors),
                   std::move(weights));

    return dedupePerVertex(num_vertices, std::move(offsets),
                           std::move(neighbors), std::move(weights),
                           opts.keepWeights, opts.jobs);
}

} // namespace

Csr
buildCsr(VertexId num_vertices, std::vector<CooEdge> edges,
         const BuildOptions &opts)
{
    return buildFromEdges(num_vertices, edges, opts);
}

Csr
buildCsrFromBuffer(VertexId num_vertices, CooBuffer edges,
                   const BuildOptions &opts)
{
    return buildFromEdges(num_vertices, edges, opts);
}

} // namespace gds::graph
