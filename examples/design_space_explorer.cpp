/**
 * @file
 * Design-space exploration with the public API: sweep the GraphDynS
 * ablation knobs (the four data-aware scheduling techniques) and the
 * Updater count on one workload, reporting simulated time, traffic and
 * the power/area each configuration would cost. This is the kind of
 * study Sec. 7.1/7.2 of the paper performs.
 */

#include <cstdio>

#include "energy/energy_model.hh"
#include "harness/experiment.hh"

using namespace gds;
using harness::Table;

int
main()
{
    std::printf("=== GraphDynS design-space exploration (PR on the "
                "Flickr surrogate) ===\n\n");
    const graph::Csr g = harness::loadDataset("FR", /*weighted=*/false);

    // --- Technique ablation. ---
    std::printf("scheduling-technique ablation (cumulative):\n");
    Table ablation({"config", "time(ms)", "GTEPS", "traffic(MB)",
                    "atomic stalls", "applies skipped"});
    const harness::GdsVariant variants[] = {
        harness::GdsVariant::Wb, harness::GdsVariant::We,
        harness::GdsVariant::Wea, harness::GdsVariant::Full};
    harness::RunSpec spec(harness::SystemId::GraphDynS,
                          algo::AlgorithmId::Pr, "FR");
    for (const auto v : variants) {
        spec.variant = v;
        const auto r = harness::run(spec, g);
        ablation.addRow({harness::variantName(v),
                         Table::num(r.seconds * 1e3, 3),
                         Table::num(r.gteps, 1),
                         Table::num(r.memoryBytes / 1e6, 1),
                         Table::num(r.atomicStalls, 0),
                         Table::num(r.updatesSkipped, 0)});
    }
    ablation.print();

    // --- Updater (crossbar radix) sweep with hardware cost. ---
    std::printf("\nUpdater-count sweep (performance vs silicon):\n");
    Table sweep({"UEs", "time(ms)", "GTEPS", "power(W)", "area(mm2)"});
    energy::EnergyModel model;
    spec.variant = harness::GdsVariant::Full;
    for (const unsigned ues : {32u, 64u, 128u, 256u}) {
        spec.gds.numUes = ues;
        const auto r = harness::run(spec, g);
        const auto hw = model.gdsBreakdown(spec.gds);
        sweep.addRow({std::to_string(ues),
                      Table::num(r.seconds * 1e3, 3),
                      Table::num(r.gteps, 1),
                      Table::num(hw.totalPowerW(), 2),
                      Table::num(hw.totalAreaMm2(), 2)});
    }
    sweep.print();

    std::printf("\nreading: each scheduling technique buys time and/or "
                "traffic; UEs above 128 cost quadratic crossbar area for "
                "diminishing returns.\n");
    return 0;
}
