/**
 * @file
 * Fig. 14e: performance over the number of Updating Elements
 * {256, 128, 64, 32} on LiveJournal, normalized to 128 UEs. Paper:
 * high-throughput algorithms are the most sensitive -- PR slows by 53%
 * and CC by 20% from 128 to 32 UEs (crossbar output contention).
 */

#include "bench_util.hh"

#include "harness/experiment.hh"

using namespace gds;
using harness::Table;

int
main()
{
    bench::banner("Fig. 14e",
                  "performance vs number of UEs, normalized to 128 (LJ)");

    harness::ResultCache cache;
    const graph::Csr weighted = harness::loadDataset("LJ", true);
    const graph::Csr unweighted = harness::loadDataset("LJ", false);
    const unsigned ue_counts[] = {256, 128, 64, 32};

    Table table({"algo", "256", "128", "64", "32"});
    std::map<algo::AlgorithmId, std::map<unsigned, double>> seconds;
    for (const algo::AlgorithmId id : algo::allAlgorithms) {
        const bool w = algo::makeAlgorithm(id)->usesWeights();
        const graph::Csr &g = w ? weighted : unweighted;
        for (const unsigned ues : ue_counts) {
            harness::RunSpec spec(harness::SystemId::GraphDynS, id, "LJ");
            spec.gds.numUes = ues;
            const auto record = bench::cachedRun(cache, spec, g);
            seconds[id][ues] = record.seconds;
        }
        std::vector<std::string> row{algo::algorithmName(id)};
        for (const unsigned ues : ue_counts) {
            row.push_back(Table::num(
                seconds[id][128] / seconds[id][ues] * 100.0, 1));
        }
        table.addRow(std::move(row));
    }
    table.print();

    const double pr_32 = seconds[algo::AlgorithmId::Pr][128] /
                         seconds[algo::AlgorithmId::Pr][32] * 100.0;
    const double cc_32 = seconds[algo::AlgorithmId::Cc][128] /
                         seconds[algo::AlgorithmId::Cc][32] * 100.0;
    std::printf("\nShape vs paper:\n");
    bench::expectation("PR performance at 32 UEs (vs 128)", "47%",
                       Table::num(pr_32, 0) + "%");
    bench::expectation("CC performance at 32 UEs (vs 128)", "80%",
                       Table::num(cc_32, 0) + "%");
    return 0;
}
