#include "svc/server.hh"

#include <sstream>
#include <utility>

#include "common/jsonio.hh"
#include "common/log.hh"
#include "common/logging.hh"
#include "sim/simulator.hh"
#include "stats/json.hh"

namespace gds::svc
{

namespace
{

/** {"ok":true,"job":...,"state":...,"cached":...[,"record":{...}]} */
std::string
jobLine(const JobView &view)
{
    std::ostringstream os;
    os << "{\"ok\":true,\"job\":";
    stats::emitJsonString(os, view.id);
    os << ",\"state\":";
    stats::emitJsonString(os, jobStateName(view.state));
    os << ",\"cached\":" << (view.cached ? "true" : "false");
    if (view.state == JobState::Done || view.state == JobState::Failed) {
        os << ",\"latency_seconds\":";
        stats::emitJsonNumber(os, view.latencySeconds);
        os << ",\"record\":" << recordJson(view.record);
    }
    os << '}';
    return os.str();
}

/** The subscribe ack: the job's current state plus "subscribed". */
std::string
subscribeAck(const JobView &view)
{
    std::ostringstream os;
    os << "{\"ok\":true,\"job\":";
    stats::emitJsonString(os, view.id);
    os << ",\"state\":";
    stats::emitJsonString(os, jobStateName(view.state));
    os << ",\"subscribed\":true}";
    return os.str();
}

} // namespace

Server::Server(ServerConfig server_config)
    : config(std::move(server_config)), sim_service(config.service)
{
}

bool
Server::stopRequested() const
{
    return stop.load(std::memory_order_relaxed) || sim::stopRequested();
}

std::string
Server::handleLine(const std::string &line)
{
    return handleParsed(parseRequest(line));
}

std::string
Server::handleParsed(const Result<Request> &parsed)
{
    if (!parsed.ok())
        return errorLine(parsed.status());
    const Request &req = parsed.value();

    switch (req.op) {
      case RequestOp::Submit: {
          auto view = sim_service.submit(req.spec);
          return view.ok() ? jobLine(view.value())
                           : errorLine(view.status());
      }
      case RequestOp::Poll: {
          auto view = sim_service.poll(req.jobId);
          return view.ok() ? jobLine(view.value())
                           : errorLine(view.status());
      }
      case RequestOp::Result: {
          auto view = sim_service.result(req.jobId);
          return view.ok() ? jobLine(view.value())
                           : errorLine(view.status());
      }
      case RequestOp::Subscribe: {
          auto view = sim_service.poll(req.jobId);
          return view.ok() ? subscribeAck(view.value())
                           : errorLine(view.status());
      }
      case RequestOp::Statsz:
        return sim_service.statszLine();
      case RequestOp::Metricsz: {
          // The whole multi-line exposition rides inside one JSON-line
          // response, so protocol clients never need a second socket.
          std::string out = "{\"ok\":true,\"metrics\":";
          out += common::jsonQuote(sim_service.metricsText());
          out += '}';
          return out;
      }
      case RequestOp::Shutdown:
        requestStop();
        return "{\"ok\":true,\"state\":\"draining\"}";
    }
    panic("bad request op");
}

void
Server::streamJob(common::LineChannel &chan, const std::string &job_id)
{
    std::uint64_t after = 0;
    while (!stopRequested()) {
        auto events = sim_service.progressSince(job_id, after, 500);
        if (!events.ok()) {
            chan.writeLine(errorLine(events.status()));
            return;
        }
        for (const ProgressEvent &event : events.value()) {
            after = event.seq;
            if (Status w = chan.writeLine(event.line); !w.ok())
                return; // subscriber went away: unsubscribe by closing
            if (event.terminal)
                return;
        }
    }
}

void
Server::serveConnection(common::LineChannel chan)
{
    // Serve every line the client sends on this connection; a clean
    // peer close (Stopped) ends it. Stop flags are honoured between
    // requests so a drain never hangs on an idle client.
    std::string line;
    for (;;) {
        const Status s = chan.readLine(line, 1000);
        if (s.ok()) {
            const auto parsed = parseRequest(line);
            if (Status w = chan.writeLine(handleParsed(parsed)); !w.ok()) {
                log::warnf("svc", {}, "client write failed: %s",
                           w.message().c_str());
                break;
            }
            // After a successful subscribe ack the connection switches
            // to pushing events until the job's terminal event, then
            // reverts to request/response.
            if (parsed.ok() &&
                parsed.value().op == RequestOp::Subscribe &&
                sim_service.poll(parsed.value().jobId).ok())
                streamJob(chan, parsed.value().jobId);
            continue;
        }
        if (s.code() == ErrorCode::Timeout) {
            if (stopRequested())
                break;
            continue;
        }
        if (s.code() != ErrorCode::Stopped)
            log::warnf("svc", {}, "client read failed: %s",
                       s.toString().c_str());
        break;
    }
}

void
Server::serveMetrics(common::UnixListener &listener)
{
    while (!stopRequested()) {
        auto channel = listener.accept(200);
        if (!channel.ok()) {
            if (channel.status().code() != ErrorCode::Timeout) {
                log::warnf("svc", {}, "metrics accept failed: %s",
                           channel.status().message().c_str());
            }
            continue;
        }
        // Scrape semantics: write one exposition, close. The text ends
        // with '\n' already; writeLine's extra newline terminates the
        // response unambiguously for line-oriented readers.
        common::LineChannel chan = std::move(channel.value());
        if (Status w = chan.writeLine(sim_service.metricsText()); !w.ok()) {
            log::warnf("svc", {}, "metrics write failed: %s",
                       w.message().c_str());
        }
    }
}

void
Server::reapConnections(bool only_finished)
{
    const std::lock_guard<std::mutex> lock(connectionsMu);
    for (auto it = connections.begin(); it != connections.end();) {
        if (only_finished && !(*it)->finished.load(std::memory_order_acquire)) {
            ++it;
            continue;
        }
        if ((*it)->thread.joinable())
            (*it)->thread.join();
        it = connections.erase(it);
    }
}

Status
Server::serve()
{
    common::UnixListener listener;
    if (Status s = listener.bind(config.socketPath); !s.ok())
        return s;
    log::infof("svc", {}, "gds_simd listening on %s (%u workers, queue %zu)",
               config.socketPath.c_str(), config.service.workers,
               config.service.maxQueue);

    common::UnixListener metrics_listener;
    std::thread metrics_thread;
    if (!config.metricsSocketPath.empty()) {
        if (Status s = metrics_listener.bind(config.metricsSocketPath);
            !s.ok())
            return s;
        log::infof("svc", {}, "gds_simd metrics on %s",
                   config.metricsSocketPath.c_str());
        metrics_thread =
            std::thread([this, &metrics_listener] {
                serveMetrics(metrics_listener);
            });
    }

    while (!stopRequested()) {
        auto channel = listener.accept(200);
        if (!channel.ok()) {
            if (channel.status().code() == ErrorCode::Timeout)
                continue; // idle tick: re-check the stop flags
            log::warnf("svc", {}, "accept failed: %s",
                       channel.status().message().c_str());
            continue;
        }
        // One thread per connection: a long-lived subscriber must not
        // block submitters. Finished threads are reaped on the next
        // accept so an up-forever daemon doesn't accumulate them.
        reapConnections(true);
        auto conn = std::make_unique<Connection>();
        Connection *raw = conn.get();
        {
            const std::lock_guard<std::mutex> lock(connectionsMu);
            connections.push_back(std::move(conn));
        }
        raw->thread = std::thread(
            [this, raw, chan = std::move(channel.value())]() mutable {
                serveConnection(std::move(chan));
                raw->finished.store(true, std::memory_order_release);
            });
    }

    reapConnections(false);
    if (metrics_thread.joinable())
        metrics_thread.join();

    log::infof("svc", {}, "gds_simd draining (%zu jobs in flight)",
               sim_service.stats().queueDepth);
    sim_service.drain();
    log::infof("svc", {}, "gds_simd drained; exiting");
    return Status{};
}

void
Server::requestStop()
{
    stop.store(true, std::memory_order_relaxed);
}

} // namespace gds::svc
