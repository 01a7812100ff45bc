/**
 * @file
 * Ablation (beyond the paper's figures, motivated by its abstract):
 * GraphDynS "achieves 4.4x speedup ... with half the memory bandwidth"
 * of the GPU. This bench sweeps the HBM bandwidth (number of channels)
 * to show where each algorithm transitions from bandwidth-bound to
 * latency/compute-bound -- the design-space argument behind choosing
 * 512 GB/s.
 */

#include "bench_util.hh"

#include "harness/experiment.hh"

using namespace gds;
using harness::Table;

int
main()
{
    bench::banner("Ablation", "GraphDynS performance vs HBM bandwidth "
                              "(LJ)");

    harness::ResultCache cache;
    const graph::Csr weighted = harness::loadDataset("LJ", true);
    const graph::Csr unweighted = harness::loadDataset("LJ", false);

    const unsigned channel_counts[] = {8, 16, 32, 64}; // 128..1024 GB/s
    Table table({"algo", "128GB/s", "256GB/s", "512GB/s", "1024GB/s"});
    for (const algo::AlgorithmId id :
         {algo::AlgorithmId::Bfs, algo::AlgorithmId::Sssp,
          algo::AlgorithmId::Pr}) {
        const bool w = algo::makeAlgorithm(id)->usesWeights();
        const graph::Csr &g = w ? weighted : unweighted;
        std::vector<std::string> row{algo::algorithmName(id)};
        double base_seconds = 0.0;
        for (const unsigned channels : channel_counts) {
            harness::RunSpec spec(harness::SystemId::GraphDynS, id, "LJ");
            spec.gds.hbm.numChannels = channels;
            const auto record = bench::cachedRun(cache, spec, g);
            if (channels == 32)
                base_seconds = record.seconds;
            row.push_back(Table::num(record.gteps, 1) + " GTEPS");
            (void)base_seconds;
        }
        table.addRow(std::move(row));
    }
    table.print();

    std::printf("\nreading: PR (streaming, high throughput) scales with "
                "bandwidth until the 128-edge/cycle compute ceiling;\n"
                "BFS/SSSP are traversal-latency bound and gain little "
                "beyond 512 GB/s -- the paper's operating point.\n");
    return 0;
}
