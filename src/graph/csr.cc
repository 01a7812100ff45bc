#include "graph/csr.hh"

#include <algorithm>

#include "common/rng.hh"

namespace gds::graph
{

Status
Csr::validateArrays(std::span<const EdgeId> offset_array,
                    std::span<const VertexId> neighbor_array,
                    std::span<const Weight> weight_array)
{
    auto corrupt = [](std::string msg) {
        return Status::failure(ErrorCode::CorruptInput, std::move(msg));
    };
    if (offset_array.empty())
        return corrupt("offset array must have V+1 entries");
    if (offset_array.front() != 0)
        return corrupt("offset array must start at 0");
    if (offset_array.back() != neighbor_array.size()) {
        return corrupt(gds::detail::vformat(
            "offset array end (%llu) must equal edge count (%zu)",
            static_cast<unsigned long long>(offset_array.back()),
            neighbor_array.size()));
    }
    if (!std::is_sorted(offset_array.begin(), offset_array.end()))
        return corrupt("offset array must be non-decreasing");
    if (!weight_array.empty() &&
        weight_array.size() != neighbor_array.size()) {
        return corrupt(gds::detail::vformat(
            "weight array size mismatch (%zu weights, %zu edges)",
            weight_array.size(), neighbor_array.size()));
    }
    const VertexId v_count =
        static_cast<VertexId>(offset_array.size() - 1);
    for (VertexId dst : neighbor_array) {
        if (dst >= v_count) {
            return corrupt(gds::detail::vformat(
                "edge destination %u out of range (V=%u)", dst, v_count));
        }
    }
    return {};
}

Csr::Csr() : offsets_store(1, 0)
{
    offsets = offsets_store;
}

Csr::Csr(CsrArray<EdgeId> offset_array, CsrArray<VertexId> neighbor_array,
         CsrArray<Weight> weight_array)
    : offsets_store(std::move(offset_array)),
      neighbors_store(std::move(neighbor_array)),
      weights_store(std::move(weight_array))
{
    offsets = offsets_store;
    neighbors = neighbors_store;
    weights = weights_store;
    // Constructing from malformed arrays raises the typed error directly,
    // so both untrusted sources (file loaders) and buggy builders surface
    // as a recordable CorruptInputError instead of aborting the harness.
    const Status valid = validateArrays(offsets, neighbors, weights);
    if (!valid.ok())
        throwStatus(valid);
}

Csr
Csr::fromMapping(std::span<const EdgeId> offset_view,
                 std::span<const VertexId> neighbor_view,
                 std::span<const Weight> weight_view,
                 std::shared_ptr<const common::MappedFile> backing_file,
                 bool deep_validate)
{
    const std::string path =
        backing_file ? backing_file->path() : "<mapping>";
    // Cheap invariants first: they touch at most the first and last page
    // of each section, preserving the zero-copy fast path.
    gds_require(!offset_view.empty(), CorruptInputError,
                "%s: offset array must have V+1 entries", path.c_str());
    gds_require(offset_view.front() == 0, CorruptInputError,
                "%s: offset array must start at 0", path.c_str());
    gds_require(offset_view.back() == neighbor_view.size(),
                CorruptInputError,
                "%s: offset array end (%llu) must equal edge count (%zu)",
                path.c_str(),
                static_cast<unsigned long long>(offset_view.back()),
                neighbor_view.size());
    gds_require(weight_view.empty() ||
                    weight_view.size() == neighbor_view.size(),
                CorruptInputError,
                "%s: weight array size mismatch (%zu weights, %zu edges)",
                path.c_str(), weight_view.size(), neighbor_view.size());

    Csr g;
    g.offsets_store.clear();
    g.offsets = offset_view;
    g.neighbors = neighbor_view;
    g.weights = weight_view;
    g.backing = std::move(backing_file);

    if (deep_validate) {
        const Status valid = validateArrays(offset_view, neighbor_view,
                                            weight_view);
        if (!valid.ok())
            throw CorruptInputError(path, 0, valid.message());
    }
    return g;
}

void
Csr::rebindOwnedViews(const Csr &other)
{
    // A view is owned iff it pointed into the source's own store (an
    // empty view trivially counts as owned); mapped views keep aliasing
    // the shared mapping, which `backing` keeps alive.
    if (other.offsets.empty() ||
        other.offsets.data() == other.offsets_store.data())
        offsets = offsets_store;
    if (other.neighbors.empty() ||
        other.neighbors.data() == other.neighbors_store.data())
        neighbors = neighbors_store;
    if (other.weights.empty() ||
        other.weights.data() == other.weights_store.data())
        weights = weights_store;
}

Csr::Csr(const Csr &other)
    : offsets_store(other.offsets_store),
      neighbors_store(other.neighbors_store),
      weights_store(other.weights_store),
      offsets(other.offsets),
      neighbors(other.neighbors),
      weights(other.weights),
      backing(other.backing)
{
    rebindOwnedViews(other);
}

Csr &
Csr::operator=(const Csr &other)
{
    if (this != &other) {
        Csr tmp(other);
        *this = std::move(tmp);
    }
    return *this;
}

std::uint64_t
Csr::heapBytes() const
{
    return offsets_store.size() * sizeof(EdgeId) +
           neighbors_store.size() * sizeof(VertexId) +
           weights_store.size() * sizeof(Weight);
}

std::uint64_t
Csr::mappedBytes() const
{
    return backing ? backing->size() : 0;
}

DegreeStats
Csr::degreeStats() const
{
    DegreeStats ds;
    const VertexId v_count = numVertices();
    if (v_count == 0)
        return ds;
    std::uint64_t min_deg = outDegree(0);
    std::uint64_t max_deg = 0;
    std::uint64_t zero_count = 0;
    for (VertexId v = 0; v < v_count; ++v) {
        const std::uint64_t d = outDegree(v);
        min_deg = std::min(min_deg, d);
        max_deg = std::max(max_deg, d);
        if (d == 0)
            ++zero_count;
    }
    ds.minDegree = min_deg;
    ds.maxDegree = max_deg;
    ds.meanDegree = static_cast<double>(numEdges()) / v_count;
    ds.zeroFraction = static_cast<double>(zero_count) / v_count;
    return ds;
}

Csr
Csr::withRandomWeights(std::uint64_t seed) const
{
    Rng rng(seed);
    CsrArray<Weight> w(neighbors.size());
    for (auto &value : w)
        value = static_cast<Weight>(1 + rng.below(255));
    if (!isMapped()) {
        return Csr(CsrArray<EdgeId>(offsets.begin(), offsets.end()),
                   CsrArray<VertexId>(neighbors.begin(), neighbors.end()),
                   std::move(w));
    }
    // Zero-copy hybrid: keep serving offsets/neighbours from the mapping
    // and own only the new weight array.
    Csr g = fromMapping(offsets, neighbors, {}, backing,
                        /*deep_validate=*/false);
    g.weights_store = std::move(w);
    g.weights = g.weights_store;
    return g;
}

Csr
Csr::withoutWeights() const
{
    if (!isMapped()) {
        return Csr(CsrArray<EdgeId>(offsets.begin(), offsets.end()),
                   CsrArray<VertexId>(neighbors.begin(), neighbors.end()),
                   {});
    }
    return fromMapping(offsets, neighbors, {}, backing,
                       /*deep_validate=*/false);
}

} // namespace gds::graph
