#include "svc/protocol.hh"

#include <limits>
#include <sstream>

#include "common/jsonio.hh"
#include "common/parse.hh"
#include "graph/datasets.hh"
#include "stats/json.hh"

namespace gds::svc
{

namespace
{

Status
badRequest(const std::string &message)
{
    return Status::failure(ErrorCode::Config, message);
}

/**
 * Fetch an optional numeric field as its raw text, accepting both JSON
 * numbers (via the retained lexeme) and strings, so `"source":3` and
 * `"source":"3"` both funnel into the same strict parser the CLI uses.
 */
Result<std::optional<std::string>>
numericText(const common::JsonValue &obj, const std::string &field)
{
    const common::JsonValue *v = obj.find(field);
    if (!v)
        return std::optional<std::string>{};
    if (v->isNumber())
        return std::optional<std::string>{v->numberLexeme()};
    if (v->isString())
        return std::optional<std::string>{v->asString()};
    return badRequest("field '" + field + "' must be a number");
}

/** Strictly parse an optional u64 field into @p out (left unset if absent). */
Status
readU64Field(const common::JsonValue &obj, const std::string &field,
             std::optional<std::uint64_t> &out, std::uint64_t max)
{
    auto text = numericText(obj, field);
    if (!text.ok())
        return text.status();
    if (!text.value().has_value())
        return Status{};
    const auto parsed = common::parseU64(*text.value());
    if (!parsed.ok())
        return badRequest("field '" + field + "': " +
                          parsed.status().message());
    if (parsed.value() > max)
        return badRequest("field '" + field + "' exceeds " +
                          std::to_string(max));
    out = parsed.value();
    return Status{};
}

Status
validateDataset(const std::string &name)
{
    for (const auto &spec : graph::realWorldDatasets())
        if (spec.name == name)
            return Status{};
    for (const auto &spec : graph::rmatDatasets())
        if (spec.name == name)
            return Status{};
    return badRequest("unknown dataset '" + name +
                      "' (want a Table 4 tag: FR PK LJ HO IN OR or "
                      "RM22..RM26)");
}

Result<JobSpec>
parseSubmit(const common::JsonValue &obj)
{
    JobSpec spec;

    if (const common::JsonValue *sys = obj.find("system")) {
        if (!sys->isString())
            return badRequest("field 'system' must be a string");
        auto parsed = harness::parseSystem(sys->asString());
        if (!parsed.ok())
            return parsed.status();
        spec.system = parsed.value();
    }

    const common::JsonValue *alg = obj.find("algorithm");
    if (!alg || !alg->isString())
        return badRequest("submit needs a string field 'algorithm'");
    {
        auto parsed = algo::parseAlgorithm(alg->asString());
        if (!parsed.ok())
            return parsed.status();
        spec.algorithm = parsed.value();
    }

    const common::JsonValue *ds = obj.find("dataset");
    if (!ds || !ds->isString())
        return badRequest("submit needs a string field 'dataset'");
    spec.dataset = ds->asString();
    if (Status s = validateDataset(spec.dataset); !s.ok())
        return s;

    std::optional<std::uint64_t> u64;
    if (Status s = readU64Field(obj, "source", u64,
                                std::numeric_limits<VertexId>::max());
        !s.ok())
        return s;
    if (u64)
        spec.source = static_cast<VertexId>(*u64);

    u64.reset();
    if (Status s = readU64Field(obj, "iterations", u64, 1'000'000); !s.ok())
        return s;
    if (u64) {
        if (*u64 == 0)
            return badRequest("field 'iterations' must be positive");
        spec.iterations = static_cast<unsigned>(*u64);
    }

    u64.reset();
    if (Status s = readU64Field(obj, "cycle_budget", u64,
                                std::numeric_limits<Cycle>::max());
        !s.ok())
        return s;
    if (u64)
        spec.cycleBudget = *u64;

    auto wall = numericText(obj, "wall_budget_seconds");
    if (!wall.ok())
        return wall.status();
    if (wall.value().has_value()) {
        const auto parsed = common::parseF64(*wall.value());
        if (!parsed.ok())
            return badRequest("field 'wall_budget_seconds': " +
                              parsed.status().message());
        spec.wallBudgetSeconds = parsed.value();
    }

    u64.reset();
    if (Status s = readU64Field(obj, "progress_interval", u64,
                                std::numeric_limits<Cycle>::max());
        !s.ok())
        return s;
    if (u64)
        spec.progressInterval = *u64;

    return spec;
}

} // namespace

std::string
JobSpec::key() const
{
    std::string k =
        harness::cellKey(harness::systemTag(system), algorithm, dataset);
    // Only overrides that change the simulated outcome extend the key:
    // a spec with none reuses (and warms) the evaluation matrix's cells.
    if (source)
        k += "|src" + std::to_string(*source);
    if (iterations)
        k += "|it" + std::to_string(*iterations);
    if (cycleBudget != 0)
        k += "|cb" + std::to_string(cycleBudget);
    return k;
}

Result<Request>
parseRequest(const std::string &line)
{
    auto json = common::parseJson(line);
    if (!json.ok())
        return json.status();
    const common::JsonValue &root = json.value();
    if (!root.isObject())
        return badRequest("request must be a JSON object");

    const common::JsonValue *op = root.find("op");
    if (!op || !op->isString())
        return badRequest("request needs a string field 'op'");

    Request req;
    const std::string name = common::lowercase(op->asString());
    if (name == "submit") {
        req.op = RequestOp::Submit;
        auto spec = parseSubmit(root);
        if (!spec.ok())
            return spec.status();
        req.spec = spec.value();
        return req;
    }
    if (name == "poll" || name == "result" || name == "subscribe") {
        req.op = name == "poll"
                     ? RequestOp::Poll
                     : name == "result" ? RequestOp::Result
                                        : RequestOp::Subscribe;
        const common::JsonValue *job = root.find("job");
        if (!job || !job->isString() || job->asString().empty())
            return badRequest("'" + name +
                              "' needs a non-empty string field 'job'");
        req.jobId = job->asString();
        return req;
    }
    if (name == "statsz") {
        req.op = RequestOp::Statsz;
        return req;
    }
    if (name == "metricsz") {
        req.op = RequestOp::Metricsz;
        return req;
    }
    if (name == "shutdown") {
        req.op = RequestOp::Shutdown;
        return req;
    }
    return badRequest("unknown op '" + op->asString() +
                      "' (want submit, poll, result, subscribe, statsz, "
                      "metricsz or shutdown)");
}

std::string
errorLine(ErrorCode code, const std::string &message)
{
    std::ostringstream os;
    os << "{\"ok\":false,\"error\":";
    stats::emitJsonString(os, errorCodeName(code));
    os << ",\"message\":";
    stats::emitJsonString(os, message);
    os << '}';
    return os.str();
}

std::string
errorLine(const Status &status)
{
    return errorLine(status.code(), status.message());
}

std::string
recordJson(const harness::RunRecord &record)
{
    // dumpRecordsJson emits an array (plus a trailing newline); a
    // single-record call is "[{...}]\n", so the object is the middle
    // slice. Reusing the harness serializer keeps daemon responses
    // field-for-field identical to bench dumps.
    std::ostringstream os;
    harness::dumpRecordsJson({record}, os);
    std::string arr = os.str();
    while (!arr.empty() && (arr.back() == '\n' || arr.back() == ' '))
        arr.pop_back();
    gds_assert(arr.size() >= 2 && arr.front() == '[' && arr.back() == ']',
               "unexpected records array shape");
    return arr.substr(1, arr.size() - 2);
}

} // namespace gds::svc
