/**
 * @file
 * Wire protocol of the simulation service (gds_simd): JSON-lines over a
 * Unix-domain stream socket. Every request is one JSON object on one
 * line; every response is one JSON object on one line whose first field
 * is "ok" (true/false). Failure responses carry the ErrorCode name in
 * "error" plus a human-readable "message", mirroring the in-process
 * Status type so clients and tests can switch on the same code names.
 *
 * Requests:
 *   {"op":"submit","system":"gds","algorithm":"bfs","dataset":"FR",
 *    "source":3,"iterations":10,"cycle_budget":1000000,
 *    "wall_budget_seconds":2.5,"progress_interval":100000}
 *                                      (all but algorithm/dataset optional)
 *   {"op":"poll","job":"j1"}
 *   {"op":"result","job":"j1"}
 *   {"op":"subscribe","job":"j1"}
 *   {"op":"statsz"}
 *   {"op":"metricsz"}
 *   {"op":"shutdown"}
 *
 * subscribe is the one streaming op: after the {"ok":true,...} ack the
 * server keeps the connection and pushes one JSON-lines progress event
 * per line ({"event":"start"|"progress"|"done",...}) until the terminal
 * "done" event, after which the connection reverts to request/response.
 *
 * Every numeric request field is re-parsed from its raw lexeme through
 * the same strict common/parse.hh helpers the CLI flags use, so
 * "source":-3 or "iterations":1e99 is a typed "config" rejection, never
 * a silent wraparound.
 */

#pragma once

#include <optional>
#include <string>

#include "algo/vcpm.hh"
#include "common/error.hh"
#include "common/types.hh"
#include "harness/experiment.hh"

namespace gds::svc
{

/** The request operations. */
enum class RequestOp
{
    Submit,    ///< enqueue one simulation job
    Poll,      ///< query a job's state
    Result,    ///< fetch a finished job's record
    Subscribe, ///< stream a job's live progress events
    Statsz,    ///< service metrics snapshot (JSON)
    Metricsz,  ///< Prometheus text exposition of the metrics registry
    Shutdown,  ///< request a graceful drain (same path as SIGTERM)
};

/** One validated simulation job request. */
struct JobSpec
{
    harness::SystemId system = harness::SystemId::GraphDynS;
    algo::AlgorithmId algorithm = algo::AlgorithmId::Bfs;
    std::string dataset; ///< a Table 4 tag (FR..OR, RM22..RM26)
    /** Source vertex override; unset uses the harness policy. */
    std::optional<VertexId> source;
    /** Iteration-cap override; unset uses the harness policy. */
    std::optional<unsigned> iterations;
    /** Cycle budget override; 0 uses GDS_CELL_BUDGET / default. */
    Cycle cycleBudget = 0;
    /** Wall budget override in seconds; negative uses the env policy. */
    double wallBudgetSeconds = -1.0;
    /**
     * Simulated-cycle interval between live progress samples streamed to
     * subscribed clients; 0 turns sampling off for this job. Pure
     * telemetry — it never changes the simulated outcome, so it is
     * deliberately NOT part of key().
     */
    Cycle progressInterval = 1'000'000;

    /**
     * Result-cache key. Extends the harness cellKey() (system tag,
     * algorithm, dataset, scale divisor) with any overrides that change
     * the simulated outcome, so a job with a custom source never
     * collides with the evaluation matrix's canonical cells.
     */
    std::string key() const;
};

/** One parsed request line. */
struct Request
{
    RequestOp op = RequestOp::Statsz;
    JobSpec spec;      ///< Submit only
    std::string jobId; ///< Poll / Result / Subscribe only
};

/**
 * Parse + validate one request line. Failures are ConfigError statuses
 * for anything the client got wrong (unknown op/algorithm/dataset,
 * malformed numbers) and CorruptInput for non-JSON bytes.
 */
Result<Request> parseRequest(const std::string &line);

/** {"ok":false,"error":"<code name>","message":...} */
std::string errorLine(ErrorCode code, const std::string &message);

/** errorLine() from a failure Status. */
std::string errorLine(const Status &status);

/** Serialize one RunRecord as a JSON object (reuses the harness dump). */
std::string recordJson(const harness::RunRecord &record);

} // namespace gds::svc
