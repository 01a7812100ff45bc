/**
 * @file
 * Fig. 14a: reduction in Dispatcher scheduling operations from the
 * workload-balanced batch dispatch, per algorithm on LiveJournal.
 * Without WB every edge is a scheduling operation; with WB a whole
 * sub-threshold edge list (or an eListSize chunk) is one operation.
 * Paper: ~94% fewer scheduling operations on average, with 16 DEs
 * instead of 128.
 */

#include "bench_util.hh"

#include "harness/experiment.hh"

using namespace gds;
using harness::Table;

int
main()
{
    bench::banner("Fig. 14a",
                  "scheduling-operation reduction from workload-balanced "
                  "dispatch (LJ)");

    harness::ResultCache cache;
    const graph::Csr weighted = harness::loadDataset("LJ", true);
    const graph::Csr unweighted = harness::loadDataset("LJ", false);

    Table table({"algo", "ops(noWB)", "ops(WB)", "reduction(%)"});
    std::vector<double> reductions;
    for (const algo::AlgorithmId id : algo::allAlgorithms) {
        const bool w = algo::makeAlgorithm(id)->usesWeights();
        const graph::Csr &g = w ? weighted : unweighted;
        harness::RunSpec spec(harness::SystemId::GraphDynS, id, "LJ");
        const auto full = bench::cachedRun(cache, spec, g);
        spec.variant = harness::GdsVariant::NoWb;
        const auto no_wb = bench::cachedRun(cache, spec, g);
        const double reduction =
            (1.0 - full.schedulingOps / no_wb.schedulingOps) * 100.0;
        reductions.push_back(reduction);
        table.addRow({algo::algorithmName(id),
                      Table::num(no_wb.schedulingOps, 0),
                      Table::num(full.schedulingOps, 0),
                      Table::num(reduction, 1)});
    }
    auto mean = [](const std::vector<double> &v) {
        double s = 0;
        for (const double x : v)
            s += x;
        return s / static_cast<double>(v.size());
    };
    table.addRow({"MEAN", "-", "-", Table::num(mean(reductions), 1)});
    table.print();

    std::printf("\nShape vs paper:\n");
    bench::expectation("scheduling operations reduced", "~94%",
                       Table::num(mean(reductions), 0) + "%");
    bench::expectation("dispatcher size", "16 DEs (was 128)",
                       "16 DEs (config)");
    return 0;
}
