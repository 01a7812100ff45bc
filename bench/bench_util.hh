/**
 * @file
 * Shared helpers for the figure-regeneration benches: banner printing and
 * the paper-expected vs measured footer every bench emits.
 */

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "graph/datasets.hh"
#include "harness/experiment.hh"

namespace gds::bench
{

/** Print the bench banner with the active scale divisor. */
inline void
banner(const std::string &figure, const std::string &what)
{
    std::printf("=== %s: %s ===\n", figure.c_str(), what.c_str());
    std::printf("datasets scaled by GDS_SCALE=%u "
                "(set GDS_SCALE=1 for paper-native sizes)\n\n",
                graph::datasetScaleDivisor());
}

/** Print one paper-expected vs measured line. */
inline void
expectation(const std::string &metric, const std::string &paper,
            const std::string &measured)
{
    std::printf("  %-44s paper: %-12s measured: %s\n", metric.c_str(),
                paper.c_str(), measured.c_str());
}

/**
 * Run (or reload) the shared 5x6x3 evaluation matrix every matrix bench
 * reads from, announcing the worker count so cold timings are
 * interpretable. Cached cells are reused; cold cells fan out over
 * GDS_JOBS workers (default: all hardware threads).
 */
inline std::vector<harness::RunRecord>
sharedMatrix(harness::ResultCache &cache)
{
    std::printf("evaluation matrix: cold cells run on GDS_JOBS=%u "
                "workers; cached cells are reused\n\n",
                common::jobCount());
    return harness::evaluationMatrix(cache);
}

/**
 * Fetch one successful matrix cell, or announce the skip and return
 * nullptr. Benches drop the whole row when any system's cell is missing
 * or failed, so one wedged simulation never kills a figure.
 */
inline const harness::RunRecord *
cellOrSkip(const std::vector<harness::RunRecord> &records,
           const std::string &system, const std::string &algorithm,
           const std::string &dataset)
{
    const harness::RunRecord *r =
        harness::tryFindRecord(records, system, algorithm, dataset);
    if (!r) {
        std::printf("  [skip] %s %s/%s: cell missing or failed\n",
                    system.c_str(), algorithm.c_str(), dataset.c_str());
    }
    return r;
}

} // namespace gds::bench
