/**
 * @file
 * Fig. 14d: reduction of off-chip data access from exact prefetching
 * (EP: WE vs WB) and from update scheduling (US: WEAU vs WEA) on
 * LiveJournal. Paper: EP removes ~30% of the traffic, US ~18%; BFS
 * benefits the most from US (up to 55% fewer accesses), PR not at all.
 */

#include "bench_util.hh"

#include "harness/experiment.hh"

using namespace gds;
using harness::GdsVariant;
using harness::Table;

int
main()
{
    bench::banner("Fig. 14d",
                  "off-chip access reduction from EP and US (LJ)");

    harness::ResultCache cache;
    const graph::Csr weighted = harness::loadDataset("LJ", true);
    const graph::Csr unweighted = harness::loadDataset("LJ", false);

    Table table({"algo", "EP reduction(%)", "US reduction(%)"});
    std::vector<double> ep_all;
    std::vector<double> us_all;
    for (const algo::AlgorithmId id : algo::allAlgorithms) {
        const bool w = algo::makeAlgorithm(id)->usesWeights();
        const graph::Csr &g = w ? weighted : unweighted;
        auto cell = [&](GdsVariant v) {
            harness::RunSpec spec(harness::SystemId::GraphDynS, id, "LJ");
            spec.variant = v;
            return bench::cachedRun(cache, spec, g);
        };
        const auto wb = cell(GdsVariant::Wb);
        const auto we = cell(GdsVariant::We);
        const auto wea = cell(GdsVariant::Wea);
        const auto weau = cell(GdsVariant::Full);
        const double ep = (1.0 - we.memoryBytes / wb.memoryBytes) * 100.0;
        const double us =
            (1.0 - weau.memoryBytes / wea.memoryBytes) * 100.0;
        ep_all.push_back(ep);
        us_all.push_back(us);
        table.addRow({algo::algorithmName(id), Table::num(ep, 1),
                      Table::num(us, 1)});
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (const double x : v)
            s += x;
        return s / static_cast<double>(v.size());
    };
    table.addRow({"MEAN", Table::num(mean(ep_all), 1),
                  Table::num(mean(us_all), 1)});
    table.print();

    std::printf("\nShape vs paper:\n");
    bench::expectation("exact prefetching traffic reduction", "~30%",
                       Table::num(mean(ep_all), 0) + "%");
    bench::expectation("update scheduling traffic reduction", "~18%",
                       Table::num(mean(us_all), 0) + "%");
    bench::expectation("US reduction on PR", "~0%",
                       Table::num(us_all[4], 1) + "%");
    return 0;
}
