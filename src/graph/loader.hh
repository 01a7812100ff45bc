/**
 * @file
 * Graph file I/O: whitespace-separated edge-list text files ("src dst
 * [weight]" per line, '#' or '%' comments) and a binary CSR format for
 * fast reload of generated surrogates.
 *
 * Binary format v2 (magic "GDSB", version 2) is built for zero-copy
 * serving: a 4 KiB header page (endianness guard, |V|/|E|/flags, a
 * section table with FNV-1a-64 per-section checksums, and a header
 * checksum) followed by the offset, neighbour and weight arrays, each
 * page-aligned so they can be handed to the simulators as typed views
 * into a read-only file mapping. Version 1 files (the pre-v2 cache
 * format) still load through a fallback reader.
 */

#pragma once

#include <string>

#include "graph/csr.hh"

namespace gds::graph
{

/** Options for the zero-copy mapped loader. */
struct MapOptions
{
    /**
     * Verify every section's FNV-1a-64 checksum and run the full O(V+E)
     * structural validation before serving the graph. Faults in every
     * page, trading the zero-copy fast path for end-to-end integrity;
     * off by default because cache files are written atomically and
     * checksummed at write time.
     */
    bool verify = false;
};

/**
 * Load an edge-list text file. Vertex count is 1 + the largest endpoint
 * unless @p num_vertices is nonzero.
 *
 * @throws ConfigError when the file cannot be opened
 * @throws CorruptInputError (with the line number) on malformed lines
 */
Csr loadEdgeList(const std::string &path, VertexId num_vertices = 0,
                 bool weighted = false);

/**
 * Save a CSR graph (binary format v2) atomically and durably: write to a
 * process-unique temp file in the same directory, fsync, then rename over
 * @p path and fsync the parent directory. A crash mid-write or a
 * concurrent writer of the same path can never leave a truncated or
 * interleaved file behind; the loser of a rename race simply replaces the
 * winner's identical bytes.
 */
void saveBinaryAtomic(const Csr &graph, const std::string &path);

/**
 * Load a CSR graph from the binary format into heap-owned arrays.
 * Magic, version, endianness guard, header and section checksums (v2)
 * and every length field are checked against the file size, and the
 * arrays are validated (Csr::validateArrays) before construction.
 * Version 1 files load through the legacy bounded reader.
 *
 * @throws ConfigError when the file cannot be opened
 * @throws CorruptInputError on a truncated, foreign, or corrupted file
 */
Csr loadBinary(const std::string &path);

/**
 * Load a v2 binary graph zero-copy: the returned Csr's arrays are typed
 * views into a shared read-only mapping of the file (madvise'd for
 * sequential readahead), so repeated loads across processes share pages
 * and no heap copies are made. Version 1 files cannot be served in
 * place (unaligned sections) and fall back to the heap loader.
 *
 * @throws ConfigError when the file cannot be opened
 * @throws CorruptInputError on a truncated, foreign, or corrupted file,
 *         including a file shorter than its header promises (short map)
 */
Csr loadBinaryMapped(const std::string &path, const MapOptions &opts = {});

} // namespace gds::graph
