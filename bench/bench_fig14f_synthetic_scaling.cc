/**
 * @file
 * Fig. 14f: PR throughput over the five RMAT graphs (scale 22-26,
 * edge-to-vertex ratio 16) for GraphDynS and Graphicionado. Paper: both
 * scale well; GraphDynS slows slightly on the largest graphs once
 * slicing causes repetitive active-vertex accesses, and Graphicionado
 * (with 2x the on-chip capacity) degrades more gradually.
 *
 * Set GDS_RMAT_MAX=24 (etc.) to trim the sweep on small machines.
 */

#include "bench_util.hh"

#include "common/parse.hh"
#include "harness/experiment.hh"

using namespace gds;
using harness::Table;

int
main()
{
    bench::banner("Fig. 14f",
                  "PR throughput (GTEPS) on RMAT scale 22-26");

    const unsigned max_scale = static_cast<unsigned>(
        common::parseEnvU64("GDS_RMAT_MAX", 26, 1, 40));

    harness::ResultCache cache;
    Table table({"graph", "|V|", "|E|", "Graphicionado", "GraphDynS",
                 "GDS slices"});
    std::vector<double> gds_series;
    std::vector<double> gi_series;
    for (const auto &spec : graph::rmatDatasets()) {
        if (spec.rmatScale > max_scale)
            continue;
        const graph::Csr g = harness::loadDataset(spec.name, false);
        const auto gds = bench::cachedRun(
            cache,
            {harness::SystemId::GraphDynS, algo::AlgorithmId::Pr, spec.name},
            g);
        const auto gi = bench::cachedRun(
            cache,
            {harness::SystemId::Graphicionado, algo::AlgorithmId::Pr,
             spec.name},
            g);
        core::GdsConfig cfg;
        const unsigned slices =
            graph::numSlices(g.numVertices(), cfg.sliceCapacity());
        gds_series.push_back(gds.gteps);
        gi_series.push_back(gi.gteps);
        table.addRow({spec.name, std::to_string(g.numVertices()),
                      std::to_string(g.numEdges()),
                      Table::num(gi.gteps, 1), Table::num(gds.gteps, 1),
                      std::to_string(slices)});
    }
    table.print();

    std::printf("\nShape vs paper:\n");
    if (gds_series.size() >= 2) {
        const double gds_drop =
            gds_series.back() / gds_series.front() * 100.0;
        bench::expectation("GraphDynS throughput retained at top scale",
                           "slight slowdown",
                           Table::num(gds_drop, 0) + "% of smallest");
        bench::expectation("both systems scale to the largest graphs",
                           "yes",
                           (gds_series.back() > 0 && gi_series.back() > 0)
                               ? "yes"
                               : "no");
    }
    return 0;
}
