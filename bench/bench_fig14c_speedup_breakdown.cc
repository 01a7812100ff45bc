/**
 * @file
 * Fig. 14c: cumulative speedup of the scheduling techniques over
 * Graphicionado on LiveJournal -- WB (workload balancing), WE (+exact
 * prefetching), WEA (+zero-stall atomics), WEAU (+update scheduling =
 * full GraphDynS). Paper geometric means: WE 1.39x, WEA 1.57x,
 * WEAU 1.8x; PR and CC gain the most from the atomic optimization.
 */

#include "bench_util.hh"

#include "harness/experiment.hh"

using namespace gds;
using harness::GdsVariant;
using harness::Table;

int
main()
{
    bench::banner("Fig. 14c",
                  "speedup breakdown over Graphicionado (LJ)");

    harness::ResultCache cache;
    const graph::Csr weighted = harness::loadDataset("LJ", true);
    const graph::Csr unweighted = harness::loadDataset("LJ", false);

    const GdsVariant variants[] = {GdsVariant::Wb, GdsVariant::We,
                                   GdsVariant::Wea, GdsVariant::Full};

    Table table({"algo", "WB", "WE", "WEA", "WEAU"});
    std::map<std::string, std::vector<double>> speedups;
    for (const algo::AlgorithmId id : algo::allAlgorithms) {
        const bool w = algo::makeAlgorithm(id)->usesWeights();
        const graph::Csr &g = w ? weighted : unweighted;
        const auto gi = bench::cachedRun(
            cache, {harness::SystemId::Graphicionado, id, "LJ"}, g);
        std::vector<std::string> row{algo::algorithmName(id)};
        for (const GdsVariant v : variants) {
            harness::RunSpec spec(harness::SystemId::GraphDynS, id, "LJ");
            spec.variant = v;
            const auto record = bench::cachedRun(cache, spec, g);
            const double speedup = gi.seconds / record.seconds;
            speedups[harness::variantName(v)].push_back(speedup);
            row.push_back(Table::num(speedup));
        }
        table.addRow(std::move(row));
    }
    std::vector<std::string> gm_row{"GM"};
    for (const GdsVariant v : variants) {
        gm_row.push_back(Table::num(
            harness::geometricMean(speedups[harness::variantName(v)])));
    }
    table.addRow(gm_row);
    table.print();

    std::printf("\nShape vs paper (GM speedup over Graphicionado):\n");
    bench::expectation(
        "WE (WB + exact prefetch)", "1.39x",
        Table::num(harness::geometricMean(speedups["WE"])) + "x");
    bench::expectation(
        "WEA (+ zero-stall atomics)", "1.57x",
        Table::num(harness::geometricMean(speedups["WEA"])) + "x");
    bench::expectation(
        "WEAU (full GraphDynS)", "1.8x",
        Table::num(harness::geometricMean(speedups["WEAU"])) + "x");
    return 0;
}
