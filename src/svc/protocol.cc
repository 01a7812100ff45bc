#include "svc/protocol.hh"

#include <sstream>

#include "common/jsonio.hh"
#include "common/parse.hh"
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

} // namespace

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
        auto values = harness::specValuesFromJson(root);
        if (!values.ok())
            return values.status();
        auto spec = harness::parseSpec(values.value(), /*cli=*/false);
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
