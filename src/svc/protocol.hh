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
 *   {"op":"submit","algorithm":"bfs","dataset":"FR",...}
 *   {"op":"poll","job":"j1"}
 *   {"op":"result","job":"j1"}
 *   {"op":"subscribe","job":"j1"}
 *   {"op":"statsz"}
 *   {"op":"metricsz"}
 *   {"op":"shutdown"}
 *
 * A submit carries the members of the harness::specFields() table (the
 * same table behind gds_sim's and gds_cli's flags): "algorithm" and
 * "dataset" are required; "system", "source", "iterations",
 * "cycle_budget", "wall_budget_seconds", "progress_interval", "pes",
 * "ues" and the booleans "no_wb", "no_ep", "no_ao", "no_us" are
 * optional. Numeric members are re-parsed from their raw lexeme (or a
 * numeric string) by the strict common/parse.hh helpers and checked
 * against the field's bound, so "source":-3 or "iterations":1e99 is a
 * typed "config" rejection, never a silent wraparound; so is a GraphDynS
 * configuration core::validateConfig refuses ("ues":3).
 *
 * subscribe is the one streaming op: after the {"ok":true,...} ack the
 * server keeps the connection and pushes one JSON-lines progress event
 * per line ({"event":"start"|"progress"|"done",...}) until the terminal
 * "done" event, after which the connection reverts to request/response.
 */

#pragma once

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

/** The old job-request type: perfbench/tool.cc still names it. */
using JobSpec = harness::RunSpec;

/** One parsed request line. */
struct Request
{
    RequestOp op = RequestOp::Statsz;
    harness::RunSpec spec; ///< Submit only
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
