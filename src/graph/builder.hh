/**
 * @file
 * COO (edge list) to CSR conversion.
 *
 * The conversion is a stable counting sort over source vertices, run in
 * up to BuildOptions::jobs chunks: parallel per-chunk degree histograms,
 * a blocked prefix sum, and a per-chunk scatter through precomputed
 * cursors. Chunks partition the edge list in order, so within a vertex's
 * edge list the global edge order is preserved exactly — the output is
 * byte-identical at every job count, including the strictly serial
 * jobs=1 path.
 */

#pragma once

#include <vector>

#include "graph/csr.hh"

namespace gds::graph
{

/** A single directed edge in COO form. */
struct CooEdge
{
    VertexId src;
    VertexId dst;
    Weight weight = 1;
};

/**
 * A generator-sized edge list. Unlike std::vector<CooEdge>(n), which
 * value-initialises all n edges on the calling thread, CooBuffer(n)
 * leaves its pages untouched for a chunked parallel fill to write first.
 */
using CooBuffer = std::vector<CooEdge, NoInitAllocator<CooEdge>>;

/** Options controlling COO→CSR conversion. */
struct BuildOptions
{
    /** Drop u→u edges (default: keep, matching Graph500 RMAT semantics). */
    bool removeSelfLoops = false;
    /** Collapse duplicate (u,v) pairs keeping the first weight seen. */
    bool removeDuplicates = false;
    /** Emit per-edge weights into the CSR. */
    bool keepWeights = false;
    /**
     * Worker threads for the build. 0 means the global policy
     * (common::jobCount(): GDS_JOBS, else hardware concurrency); 1 forces
     * the serial path. The result is byte-identical for every value.
     */
    unsigned jobs = 0;
};

/**
 * Build a CSR graph from an edge list using a counting sort over sources
 * (O(V + E), stable within a vertex's edge list; deterministic and
 * byte-identical across BuildOptions::jobs values).
 *
 * @param num_vertices vertex count; every edge endpoint must be below it
 * @param edges the edge list (consumed by value; callers may move)
 * @param opts conversion options
 */
Csr buildCsr(VertexId num_vertices, std::vector<CooEdge> edges,
             const BuildOptions &opts = {});

/** buildCsr() over a generator's CooBuffer; the same conversion. */
Csr buildCsrFromBuffer(VertexId num_vertices, CooBuffer edges,
                       const BuildOptions &opts = {});

} // namespace gds::graph
