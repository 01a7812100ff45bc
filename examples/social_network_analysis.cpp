/**
 * @file
 * Social-network analysis scenario (the paper's motivating domain):
 * rank influencers with PageRank and find communities with Connected
 * Components on a Pokec-like social graph, comparing all three systems
 * (GraphDynS, Graphicionado, Gunrock-on-V100) on time, traffic and
 * energy.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "harness/experiment.hh"

using namespace gds;

int
main()
{
    std::printf("=== Social network analysis on the Pokec surrogate ===\n");
    const graph::Csr g = harness::loadDataset("PK", /*weighted=*/false);
    std::printf("graph: %u members, %llu follow edges\n\n",
                g.numVertices(),
                static_cast<unsigned long long>(g.numEdges()));

    // --- PageRank: who are the influencers? ---
    std::printf("PageRank (10 iterations) on the three systems:\n");
    harness::Table table({"system", "time(ms)", "GTEPS", "traffic(MB)",
                          "energy(mJ)"});
    auto pr_on = [&](harness::SystemId system) {
        return harness::run({system, algo::AlgorithmId::Pr, "PK"}, g);
    };
    const auto gds = pr_on(harness::SystemId::GraphDynS);
    const auto gi = pr_on(harness::SystemId::Graphicionado);
    const auto gpu = pr_on(harness::SystemId::Gunrock);
    for (const auto *r : {&gds, &gi, &gpu}) {
        table.addRow({r->system, harness::Table::num(r->seconds * 1e3, 3),
                      harness::Table::num(r->gteps, 1),
                      harness::Table::num(r->memoryBytes / 1e6, 1),
                      harness::Table::num(r->energyJoules * 1e3, 2)});
    }
    table.print();
    std::printf("GraphDynS speedup: %.2fx over Gunrock, %.2fx over "
                "Graphicionado\n\n",
                gpu.seconds / gds.seconds, gi.seconds / gds.seconds);

    // --- Influencer ranking from the accelerator's own output. ---
    auto pr = algo::makeAlgorithm(algo::AlgorithmId::Pr);
    core::GdsConfig cfg;
    cfg.maxIterations = 10;
    core::GdsAccel accel(cfg, g, *pr);
    const auto run = accel.run();
    std::vector<VertexId> order(g.numVertices());
    for (VertexId v = 0; v < g.numVertices(); ++v)
        order[v] = v;
    // The engine stores rank/out-degree; recover the rank.
    auto rank = [&](VertexId v) {
        return static_cast<double>(run.properties[v]) *
               std::max<std::uint64_t>(g.outDegree(v), 1);
    };
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](VertexId a, VertexId b) {
                          return rank(a) > rank(b);
                      });
    std::printf("top-5 influencers (vertex: rank, followees):\n");
    for (int i = 0; i < 5; ++i) {
        const VertexId v = order[i];
        std::printf("  #%d vertex %u: rank %.2e, out-degree %llu\n",
                    i + 1, v, rank(v),
                    static_cast<unsigned long long>(g.outDegree(v)));
    }

    // --- Connected components: community structure. ---
    auto cc = algo::makeAlgorithm(algo::AlgorithmId::Cc);
    core::GdsConfig cc_cfg;
    core::GdsAccel cc_accel(cc_cfg, g, *cc);
    const auto cc_run = cc_accel.run();
    std::vector<PropValue> labels = cc_run.properties;
    std::sort(labels.begin(), labels.end());
    const std::size_t components = static_cast<std::size_t>(
        std::unique(labels.begin(), labels.end()) - labels.begin());
    std::printf("\nConnected components: %zu weakly-connected groups "
                "found in %u iterations (%.3f ms simulated)\n",
                components, cc_run.iterations,
                static_cast<double>(cc_run.cycles) * 1e-6);
    return 0;
}
