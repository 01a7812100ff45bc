/**
 * @file
 * Ablation (Table 1 / Sec. 8 claim): GPU frameworks need expensive
 * degree-sort style preprocessing to fight irregularity, while GraphDynS
 * "alleviates irregularity without preprocessing". This bench runs
 * GraphDynS on the original and on a degree-sorted LiveJournal and shows
 * the gap is marginal -- the dynamic scheduling already absorbed the
 * irregularity the reordering would remove.
 */

#include "bench_util.hh"

#include "graph/transforms.hh"
#include "harness/experiment.hh"

using namespace gds;
using harness::Table;

int
main()
{
    bench::banner("Ablation",
                  "GraphDynS on original vs degree-sorted graphs "
                  "(preprocessing sensitivity, LJ)");

    harness::ResultCache cache;
    const graph::Csr weighted = harness::loadDataset("LJ", true);
    const graph::Csr unweighted = harness::loadDataset("LJ", false);

    Table table({"algo", "original(GTEPS)", "degree-sorted(GTEPS)",
                 "delta(%)"});
    std::vector<double> deltas;
    for (const algo::AlgorithmId id : algo::allAlgorithms) {
        const bool w = algo::makeAlgorithm(id)->usesWeights();
        const graph::Csr &g = w ? weighted : unweighted;
        const auto plain = bench::cachedRun(
            cache, {harness::SystemId::GraphDynS, id, "LJ"}, g);
        const harness::RunSpec sorted_spec(harness::SystemId::GraphDynS, id,
                                           "LJ-degsorted");
        const auto sorted_record =
            cache.getOrRun(sorted_spec.key(), [&] {
                return harness::run(sorted_spec,
                                    graph::degreeSortReorder(g));
            });
        const double delta =
            (sorted_record.gteps / plain.gteps - 1.0) * 100.0;
        deltas.push_back(delta);
        table.addRow({algo::algorithmName(id),
                      Table::num(plain.gteps, 1),
                      Table::num(sorted_record.gteps, 1),
                      Table::num(delta, 1)});
    }
    table.print();

    double worst = 0.0;
    for (const double d : deltas)
        worst = std::max(worst, std::abs(d));
    std::printf("\nShape vs paper:\n");
    bench::expectation(
        "benefit of degree-sort preprocessing for GraphDynS",
        "none needed", "max |delta| = " +
                           Table::num(worst, 1) + "%");
    return 0;
}
