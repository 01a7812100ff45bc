#include "baseline/graphicionado.hh"

#include <cstdlib>
#include <sstream>

#include "common/bitutil.hh"
#include "core/supervised_run.hh"
#include "sim/checkpoint.hh"

namespace gds::baseline
{

namespace
{

enum class Tag : std::uint64_t
{
    RecordBatch = 1,
    TPropFill,
    EdgeFetch,
    ApplyBatch,
    Store,
};

constexpr std::uint64_t
makeTag(Tag kind, std::uint64_t payload)
{
    return (static_cast<std::uint64_t>(kind) << 56) | payload;
}

constexpr Tag
tagKind(std::uint64_t tag)
{
    return static_cast<Tag>(tag >> 56);
}

constexpr std::uint64_t
tagPayload(std::uint64_t tag)
{
    return tag & ((1ULL << 56) - 1);
}

constexpr unsigned maxRequestBytes = 512;
constexpr unsigned applyBatchVerts = 128; ///< props per sweep request
constexpr unsigned auRecordBatch = 8;     ///< active records per store

} // namespace

GraphicionadoAccel::GraphicionadoAccel(const GraphicionadoConfig &config,
                                       const graph::Csr &g,
                                       algo::VcpmAlgorithm &algorithm,
                                       sim::Component *parent)
    : sim::Component("graphicionado", parent),
      cfg(config),
      fullGraph(g),
      algo(algorithm),
      weighted(algorithm.usesWeights()),
      hasConstProp(algorithm.usesConstProp()),
      statIterations(&statsGroup(), "iterations", "iterations executed"),
      statScatterCycles(&statsGroup(), "scatterCycles",
                        "cycles in the processing (scatter) phase"),
      statApplyCycles(&statsGroup(), "applyCycles",
                      "cycles in the apply phase"),
      statEdgesProcessed(&statsGroup(), "edgesProcessed",
                         "edges processed by the streams"),
      statVertexUpdates(&statsGroup(), "vertexUpdates",
                        "vertices whose property changed in Apply"),
      statAtomicStalls(&statsGroup(), "atomicStalls",
                       "stream stalls from RAW conflicts"),
      statApplyOps(&statsGroup(), "applyOps", "Apply kernel executions"),
      statReduceOps(&statsGroup(), "reduceOps", "Reduce kernel executions"),
      statStreamEdges(&statsGroup(), "streamEdges",
                      "edges processed per stream", config.numStreams)
{
    if (weighted && !fullGraph.hasWeights())
        throw ConfigError(algo.name() + " needs a weighted graph");

    const VertexId v_count = fullGraph.numVertices();
    const VertexId capacity = cfg.sliceCapacity();
    sliceCount = graph::numSlices(v_count, capacity);
    if (sliceCount > 1)
        slices = graph::sliceByDestination(fullGraph, capacity);

    sliceEdgeStart.resize(sliceCount, 0);
    EdgeId edge_cursor = 0;
    for (unsigned s = 0; s < sliceCount; ++s) {
        sliceEdgeStart[s] = edge_cursor;
        edge_cursor += sliceGraph(s).numEdges();
    }

    // Graphicionado record formats: edges carry src_vid (+4 B), active
    // records are (vid, prop) = 8 B.
    const core::RecordFormat fmt{weighted ? 12u : 8u, 8u, 0u};
    layout = std::make_unique<core::MemoryLayout>(
        v_count, edge_cursor, fmt, hasConstProp, sliceCount > 1);
    hbm = std::make_unique<mem::Hbm>(cfg.hbm, this);

    if (cfg.numStreams == 0 || cfg.streamQueueRecords == 0 ||
        cfg.streamLookahead == 0)
        throw ConfigError("numStreams, streamQueueRecords and "
                          "streamLookahead must be positive");
    streams.reserve(cfg.numStreams);
    for (unsigned s = 0; s < cfg.numStreams; ++s)
        streams.emplace_back(cfg.streamQueueRecords);
    headAct.resize(cfg.numStreams);
    issueWindow.resize(cfg.numStreams);
}

GraphicionadoAccel::~GraphicionadoAccel() = default;

const graph::Csr &
GraphicionadoAccel::sliceGraph(unsigned s) const
{
    return sliceCount == 1 ? fullGraph : slices[s].subgraph;
}

VertexId
GraphicionadoAccel::sliceBegin(unsigned s) const
{
    return sliceCount == 1 ? 0 : slices[s].dstBegin;
}

VertexId
GraphicionadoAccel::sliceEnd(unsigned s) const
{
    return sliceCount == 1 ? fullGraph.numVertices() : slices[s].dstEnd;
}

void
GraphicionadoAccel::buildInitialActives(VertexId source)
{
    activeCur.assign(sliceCount, {});
    activeNext.assign(sliceCount, {});
    auto add = [this](VertexId v) {
        for (unsigned s = 0; s < sliceCount; ++s)
            activeCur[s].push_back(ActiveRecord{v, prop[v]});
    };
    if (algo.allInitiallyActive()) {
        for (VertexId v = 0; v < fullGraph.numVertices(); ++v)
            add(v);
    } else {
        add(source);
    }
}

core::RunResult
GraphicionadoAccel::run(const core::RunOptions &options)
{
    const VertexId v_count = fullGraph.numVertices();
    if (v_count == 0)
        throw ConfigError("cannot run on an empty graph");
    if (options.source >= v_count)
        throw ConfigError(gds::detail::vformat(
            "source %u out of range (V=%u)", options.source, v_count));

    algo.bind(fullGraph);

    prop.resize(v_count);
    tProp.resize(v_count);
    for (VertexId v = 0; v < v_count; ++v) {
        prop[v] = algo.initialProp(v, fullGraph, options.source);
        tProp[v] = algo.tPropIdentity(v, fullGraph, options.source);
    }
    if (hasConstProp) {
        cProp.resize(v_count);
        for (VertexId v = 0; v < v_count; ++v)
            cProp[v] = algo.constProp(v, fullGraph);
    }
    lastReduceAt.assign(v_count, 0);

    buildInitialActives(options.source);
    collectPeLoads = options.collectPeLoads;
    streamLoadTrace.clear();
    streamLoadThisIteration.assign(cfg.numStreams, 0);

    iteration = 0;
    activeBuf = 0;
    startIteration();

    runStart = now;

    const core::SupervisedTarget target{
        .top = *this,
        .now = now,
        .kind = "graphicionado",
        .algorithm = algo.name(),
        .graph = fullGraph,
        .attachFaults =
            [this](sim::FaultInjector *injector) {
                hbm->setFaultInjector(injector);
            },
        .registerProbes =
            [this](obs::Sampler &sampler) { registerProbes(sampler); },
    };
    const sim::RunReport report = core::supervisedRun(
        target, options, [this] { return phase == Phase::Finished; });

    core::RunResult result;
    result.report = report;
    result.properties = prop;
    result.iterations = iteration;
    result.cycles = now - runStart;
    result.edgesProcessed =
        static_cast<std::uint64_t>(statEdgesProcessed.value());
    result.vertexUpdates =
        static_cast<std::uint64_t>(statVertexUpdates.value());
    result.updatesSkipped = 0; // the full sweep never skips
    result.memoryBytes = static_cast<std::uint64_t>(hbm->totalBytes());
    result.footprintBytes = layout->footprintBytes();
    result.bandwidthUtilization = hbm->bandwidthUtilization();
    result.atomicStalls =
        static_cast<std::uint64_t>(statAtomicStalls.value());
    result.peLoads = streamLoadTrace;
    return result;
}

void
GraphicionadoAccel::registerProbes(obs::Sampler &sampler) const
{
    sampler.add("hbm.readBytes", [this] { return hbm->readBytes(); });
    sampler.add("hbm.writeBytes", [this] { return hbm->writeBytes(); });
    sampler.add("stream.backlog", [this] {
        std::size_t total = 0;
        for (const Stream &s : streams)
            total += s.records.size();
        return static_cast<double>(total);
    });
    sampler.add("frontier.records", [this] {
        return activeCur.empty()
                   ? 0.0
                   : static_cast<double>(activeCur[0].size());
    });
    sampler.addScalar("edgesProcessed", statEdgesProcessed);
}

void
GraphicionadoAccel::traceBegin(std::string event)
{
    if (obs::Tracer *t = obs::activeTracer())
        t->begin(t->track(tracePath()), std::move(event), now);
}

void
GraphicionadoAccel::traceEnd()
{
    if (obs::Tracer *t = obs::activeTracer())
        t->end(t->track(tracePath()), now);
}

void
GraphicionadoAccel::startIteration()
{
    activatedThisIteration = 0;
    curSlice = 0;
    bool any_active = false;
    for (const auto &list : activeCur)
        any_active |= !list.empty();
    if (!any_active || iteration >= cfg.maxIterations) {
        phase = Phase::Finished;
        return;
    }
    startScatter();
}

void
GraphicionadoAccel::finishSlice()
{
    traceEnd(); // "apply"
    ++curSlice;
    if (curSlice < sliceCount) {
        startScatter();
        return;
    }
    traceEnd(); // "iteration:N"
    ++iteration;
    ++statIterations;
    if (collectPeLoads) {
        streamLoadTrace.push_back(streamLoadThisIteration);
        streamLoadThisIteration.assign(cfg.numStreams, 0);
    }
    activeCur.swap(activeNext);
    for (auto &list : activeNext)
        list.clear();
    activeBuf ^= 1;
    startIteration();
}

// ---------------------------------------------------------------------
// Scatter ("processing") phase.
// ---------------------------------------------------------------------

void
GraphicionadoAccel::startScatter()
{
    if (curSlice == 0)
        traceBegin("iteration:" + std::to_string(iteration));
    traceBegin("scatter");
    phase = Phase::ScatterPhase;
    const auto &records = activeCur[curSlice];

    sc = ScatterState{};
    sc.recordsTotal = records.size();
    const graph::Csr &sg = sliceGraph(curSlice);
    for (const ActiveRecord &r : records)
        sc.expectedEdges += sg.outDegree(r.vid);
    sc.batchesTotal = ceilDiv<std::uint64_t>(sc.recordsTotal,
                                             cfg.vprefBatch);
    sc.batchReady.assign(sc.batchesTotal, 0);
    sc.fetch.assign(sc.recordsTotal, RecordFetch{});

    for (Stream &stream : streams) {
        stream.records.clear();
        stream.edgeCursor = 0;
    }
    headAct.clear();
    issueWindow.clear();
}

bool
GraphicionadoAccel::headCanAct(const Stream &stream) const
{
    if (stream.records.empty())
        return false;
    const std::uint64_t rec = stream.records.front();
    return sc.fetch[rec].ready ||
           sliceGraph(curSlice).outDegree(activeCur[curSlice][rec].vid) == 0;
}

bool
GraphicionadoAccel::windowHasUnissued(const Stream &stream) const
{
    const std::size_t lookahead =
        std::min<std::size_t>(stream.records.size(), cfg.streamLookahead);
    for (std::size_t i = 0; i < lookahead; ++i) {
        const RecordFetch &f = sc.fetch[stream.records[i]];
        if (!f.ready && !f.allIssued)
            return true;
    }
    return false;
}

void
GraphicionadoAccel::refreshStream(unsigned s)
{
    headAct.set(s, headCanAct(streams[s]));
    issueWindow.set(s, windowHasUnissued(streams[s]));
}

bool
GraphicionadoAccel::scatterDone() const
{
    return sc.recordsDone == sc.recordsTotal &&
           sc.edgesReduced == sc.expectedEdges;
}

void
GraphicionadoAccel::tickScatter()
{
    const graph::Csr &sg = sliceGraph(curSlice);
    const auto &records = activeCur[curSlice];

    // --- Streams: one edge per cycle, stalling on RAW conflicts. Only
    // streams whose head can act are visited; the rest would skip. ---
    headAct.forEach([&](unsigned s) {
        Stream &stream = streams[s];
        const std::uint64_t rec = stream.records.front();
        const ActiveRecord &r = records[rec];
        const std::uint64_t degree = sg.outDegree(r.vid);
        if (degree == 0) {
            stream.records.pop();
            stream.edgeCursor = 0;
            ++sc.recordsDone;
            refreshStream(s);
            return true;
        }
        // The head's edge data is on chip (headAct); read the edge the
        // fetch delivered straight from the slice CSR.
        const EdgeId e = sg.offsetOf(r.vid) + stream.edgeCursor;
        const VertexId dst = sg.edgeDest(e);
        // Atomic enforcement: stall while a conflicting update is inside
        // the reduce pipeline.
        if (now - lastReduceAt[dst] < cfg.atomicPipelineDepth &&
            lastReduceAt[dst] != 0) {
            ++statAtomicStalls;
            return true;
        }
        const PropValue res = algo.processEdge(
            r.prop, weighted ? sg.edgeWeight(e) : Weight{1});
        tProp[dst] = algo.reduce(tProp[dst], res);
        lastReduceAt[dst] = now;
        ++statReduceOps;
        ++statEdgesProcessed;
        statStreamEdges[s] += 1;
        if (collectPeLoads)
            streamLoadThisIteration[s] += 1;
        ++sc.edgesReduced;
        progressed(now);
        if (++stream.edgeCursor == degree) {
            stream.records.pop();
            stream.edgeCursor = 0;
            ++sc.recordsDone;
            refreshStream(s);
        }
        return true;
    });

    // --- Per-stream edge prefetch (offsets are on chip, so fetches start
    // immediately; each record reads one sentinel record extra and every
    // record carries src_vid). Streams whose window holds no unissued
    // fetch would only skip every record, so they are not visited. ---
    unsigned issued = 0;
    bool mem_blocked = false;
    issueWindow.forEach([&](unsigned s) {
        Stream &stream = streams[s];
        const std::size_t lookahead =
            std::min<std::size_t>(stream.records.size(),
                                  cfg.streamLookahead);
        for (std::size_t i = 0; i < lookahead && issued < 8; ++i) {
            const std::uint64_t rec = stream.records[i];
            RecordFetch &f = sc.fetch[rec];
            if (f.ready || f.allIssued)
                continue;
            if (eport.inflight() >= cfg.edgeMaxInflight) {
                mem_blocked = true;
                break;
            }
            const ActiveRecord &r = records[rec];
            const std::uint64_t degree = sg.outDegree(r.vid);
            if (degree == 0) {
                f.ready = true;
                continue;
            }
            // +1 sentinel record read to detect the end of the list.
            const std::uint64_t total =
                (degree + 1) * layout->fmt.edgeBytes;
            const Addr begin = layout->edgeAddr(sliceEdgeStart[curSlice] +
                                                sg.offsetOf(r.vid));
            const unsigned chunk = static_cast<unsigned>(
                std::min<std::uint64_t>(total - f.bytesIssued,
                                        maxRequestBytes));
            if (!hbm->access(begin + f.bytesIssued, chunk, false,
                             makeTag(Tag::EdgeFetch, rec), &eport)) {
                mem_blocked = true;
                break;
            }
            f.started = true;
            f.bytesIssued += chunk;
            ++f.parts;
            ++issued;
            if (f.bytesIssued >= total)
                f.allIssued = true;
        }
        issueWindow.set(s, windowHasUnissued(stream));
        return issued < 8 && !mem_blocked;
    });

    // --- Vpref: stream active records, hash-assign to streams. ---
    while (sc.batchesIssued < sc.batchesTotal &&
           vport.inflight() < cfg.vprefMaxInflight) {
        const std::uint64_t b = sc.batchesIssued;
        const std::uint64_t first = b * cfg.vprefBatch;
        const std::uint64_t count = std::min<std::uint64_t>(
            cfg.vprefBatch, sc.recordsTotal - first);
        const Addr addr = layout->activeRecordAddr(activeBuf, first);
        if (!hbm->access(addr,
                         static_cast<unsigned>(
                             count * layout->fmt.activeRecordBytes),
                         false, makeTag(Tag::RecordBatch, b), &vport))
            break;
        ++sc.batchesIssued;
    }
    unsigned committed = 0;
    while (sc.commitCursor < sc.recordsTotal &&
           committed < cfg.numStreams) {
        const std::uint64_t k = sc.commitCursor;
        if (!sc.batchReady[k / cfg.vprefBatch])
            break;
        const unsigned s = records[k].vid % cfg.numStreams; // hash placement
        if (!streams[s].records.canPush())
            break; // head-of-line block: the imbalance bottleneck
        streams[s].records.push(k);
        refreshStream(s);
        ++sc.commitCursor;
        ++committed;
    }
}

// ---------------------------------------------------------------------
// Apply phase: full vertex sweep.
// ---------------------------------------------------------------------

void
GraphicionadoAccel::startApply()
{
    traceEnd(); // "scatter"
    traceBegin("apply");
    phase = Phase::ApplyPhase;
    ap = ApplyState{};
    ap.sweepBegin = sliceBegin(curSlice);
    ap.sweepEnd = sliceEnd(curSlice);
    ap.auWriteCursor = layout->activeArrayBase(activeBuf ^ 1);
    const std::uint64_t verts = ap.sweepEnd - ap.sweepBegin;
    ap.batchesTotal = ceilDiv<std::uint64_t>(verts, applyBatchVerts);
    ap.batchIssuedParts.assign(ap.batchesTotal, 0);
    ap.batchPending.assign(ap.batchesTotal, 0);
    ap.commitCursor = ap.sweepBegin;
}

bool
GraphicionadoAccel::applyDone() const
{
    return ap.appliedCount == ap.sweepEnd - ap.sweepBegin &&
           ap.pendingApplies.empty() && ap.writes.empty() &&
           ap.pendingAuRecords == 0 && wport.inflight() == 0;
}

void
GraphicionadoAccel::tickApply()
{
    // --- Streams apply one vertex per cycle each. ---
    unsigned applied = 0;
    while (!ap.pendingApplies.empty() && applied < cfg.numStreams) {
        const VertexId v = ap.pendingApplies.front();
        ap.pendingApplies.pop_front();
        const PropValue cp = hasConstProp ? cProp[v] : PropValue{0};
        const PropValue apply_res = algo.apply(prop[v], tProp[v], cp);
        if (algo.changed(prop[v], apply_res)) {
            prop[v] = apply_res;
            ++activatedThisIteration;
            ++statVertexUpdates;
            for (unsigned s = 0; s < sliceCount; ++s)
                activeNext[s].push_back(ActiveRecord{v, apply_res});
            ap.pendingAuRecords += sliceCount;
            // Intermittent, uncoalesced property store (4 B -> one 32 B
            // transaction): the update-irregularity cost GraphDynS
            // removes by write coalescing.
            ap.writes.push_back({layout->propAddr(v), bytesPerWord});
        } else if (algo.tPropResetsEachIteration()) {
            prop[v] = apply_res;
            ap.writes.push_back({layout->propAddr(v), bytesPerWord});
        }
        if (algo.tPropResetsEachIteration())
            tProp[v] = 0.0f;
        ++statApplyOps;
        ++ap.appliedCount;
        ++applied;
        progressed(now);
    }

    // --- Flush stores: active-record batches + property writes. ---
    while (ap.pendingAuRecords >= auRecordBatch ||
           (ap.pendingAuRecords > 0 &&
            ap.appliedCount == ap.sweepEnd - ap.sweepBegin)) {
        const std::uint64_t n =
            std::min<std::uint64_t>(ap.pendingAuRecords, auRecordBatch);
        const unsigned bytes = static_cast<unsigned>(
            n * layout->fmt.activeRecordBytes);
        if (!hbm->access(ap.auWriteCursor, bytes, true,
                         makeTag(Tag::Store, 0), &wport))
            break;
        ap.auWriteCursor += bytes;
        ap.pendingAuRecords -= n;
    }
    while (!ap.writes.empty()) {
        const auto [addr, bytes] = ap.writes.front();
        if (!hbm->access(addr, bytes, true, makeTag(Tag::Store, 1),
                         &wport))
            break;
        ap.writes.pop_front();
    }

    // --- Sweep prefetch: stream every vertex's property (and cProp). ---
    const std::uint8_t parts_needed = hasConstProp ? 2 : 1;
    while (ap.batchesIssued < ap.batchesTotal &&
           vport.inflight() < cfg.applyMaxInflight) {
        const std::uint64_t b = ap.batchesIssued;
        const VertexId first = ap.sweepBegin +
                               static_cast<VertexId>(b * applyBatchVerts);
        const unsigned count = static_cast<unsigned>(
            std::min<std::uint64_t>(applyBatchVerts, ap.sweepEnd - first));
        std::uint8_t &parts = ap.batchIssuedParts[b];
        while (parts < parts_needed) {
            const Addr addr = parts == 0 ? layout->propAddr(first)
                                         : layout->cPropAddr(first);
            if (!hbm->access(addr, count * bytesPerWord, false,
                             makeTag(Tag::ApplyBatch, b), &vport))
                break;
            ++parts;
            ++ap.batchPending[b];
        }
        if (parts < parts_needed)
            break; // memory backpressure: resume this batch next cycle
        ++ap.batchesIssued;
    }

    // --- Commit fetched vertices to the apply queue, in order. ---
    unsigned committed = 0;
    while (ap.commitCursor < ap.sweepEnd && committed < cfg.numStreams) {
        const std::uint64_t b =
            (ap.commitCursor - ap.sweepBegin) / applyBatchVerts;
        if (ap.batchIssuedParts[b] < parts_needed ||
            ap.batchPending[b] != 0)
            break;
        ap.pendingApplies.push_back(ap.commitCursor);
        ++ap.commitCursor;
        ++committed;
    }
}

// ---------------------------------------------------------------------
// Top-level tick.
// ---------------------------------------------------------------------

bool
GraphicionadoAccel::busy() const
{
    if (vport.inflight() > 0 || eport.inflight() > 0 ||
        wport.inflight() > 0)
        return true;
    if (vport.hasResponse() || eport.hasResponse() || wport.hasResponse())
        return true;
    // A non-empty stream is in one of the two sets unless its head waits
    // on an edge fetch in flight (the head is always in the window), and
    // that is the eport in-flight count above.
    if (headAct.any() || issueWindow.any())
        return true;
    return !ap.pendingApplies.empty() || !ap.writes.empty() ||
           ap.pendingAuRecords > 0;
}

std::string
GraphicionadoAccel::debugState() const
{
    std::ostringstream os;
    os << "phase=";
    switch (phase) {
      case Phase::ScatterPhase:
        os << "scatter";
        break;
      case Phase::ApplyPhase:
        os << "apply";
        break;
      case Phase::Finished:
        os << "finished";
        break;
    }
    os << " iter=" << iteration << " slice=" << curSlice << "/" << sliceCount
       << " cycle=" << now;
    os << " inflight[v=" << vport.inflight() << " e=" << eport.inflight()
       << " w=" << wport.inflight() << "]";
    if (phase == Phase::ScatterPhase) {
        os << " scatter[done=" << sc.recordsDone << "/" << sc.recordsTotal
           << " reduced=" << sc.edgesReduced << "/" << sc.expectedEdges
           << " commit=" << sc.commitCursor << "]";
    } else if (phase == Phase::ApplyPhase) {
        os << " apply[applied=" << ap.appliedCount << "/"
           << (ap.sweepEnd - ap.sweepBegin)
           << " pending=" << ap.pendingApplies.size()
           << " writes=" << ap.writes.size() << "]";
    }
    std::size_t stream_q = 0;
    for (const Stream &stream : streams)
        stream_q += stream.records.size();
    os << " queues[streams=" << stream_q << "]";
    return os.str();
}

void
GraphicionadoAccel::tick()
{
    while (vport.hasResponse()) {
        const std::uint64_t tag = vport.popResponse();
        const std::uint64_t payload = tagPayload(tag);
        switch (tagKind(tag)) {
          case Tag::RecordBatch:
            sc.batchReady[payload] = 1;
            break;
          case Tag::ApplyBatch:
            gds_assert(ap.batchPending[payload] > 0, "stray apply batch");
            --ap.batchPending[payload];
            break;
          case Tag::TPropFill:
            break;
          default:
            panic("unexpected tag on the Graphicionado vport");
        }
    }
    while (eport.hasResponse()) {
        const std::uint64_t tag = eport.popResponse();
        const std::uint64_t rec = tagPayload(tag);
        gds_assert(tagKind(tag) == Tag::EdgeFetch, "bad eport tag");
        RecordFetch &f = sc.fetch[rec];
        gds_assert(f.parts > 0, "stray edge response");
        --f.parts;
        if (f.allIssued && f.parts == 0 && !f.ready) {
            f.ready = true;
            refreshStream(activeCur[curSlice][rec].vid % cfg.numStreams);
        }
    }
    while (wport.hasResponse())
        wport.popResponse();

    switch (phase) {
      case Phase::ScatterPhase:
        ++statScatterCycles;
        tickScatter();
        if (scatterDone())
            startApply();
        break;
      case Phase::ApplyPhase:
        ++statApplyCycles;
        tickApply();
        if (applyDone())
            finishSlice();
        break;
      case Phase::Finished:
        break;
    }

    if (debug::anyEnabled()) {
        // Re-scope attribution: the HBM is ticked from inside our tick,
        // but its DPRINTF lines should carry its own path.
        const debug::ScopedTraceComponent scope(hbm->tracePath());
        hbm->tick();
    } else {
        hbm->tick();
    }
    ++now;
}

bool
GraphicionadoAccel::scatterQuiescent() const
{
    const auto &records = activeCur[curSlice];

    // A drained phase transitions at the end of its next tick.
    if (scatterDone())
        return false;

    // Streams: a head record with edge data (or none to fetch) acts next
    // tick -- reducing, RAW-stalling, or retiring. Only "waiting for edge
    // data" is a pure wait.
    if (headAct.any())
        return false;
    // Edge prefetch: with in-flight budget available, any lookahead record
    // still needing its fetch either issues a request or (degree 0) is
    // marked ready on the spot.
    if (eport.inflight() < cfg.edgeMaxInflight && issueWindow.any())
        return false;
    // Vpref: an issuable record batch, or a commit neither blocked on
    // batch data nor on a full stream queue.
    if (sc.batchesIssued < sc.batchesTotal &&
        vport.inflight() < cfg.vprefMaxInflight)
        return false;
    if (sc.commitCursor < sc.recordsTotal) {
        const std::uint64_t k = sc.commitCursor;
        if (sc.batchReady[k / cfg.vprefBatch] &&
            streams[records[k].vid % cfg.numStreams].records.size() <
                cfg.streamQueueRecords)
            return false;
    }
    return true;
}

bool
GraphicionadoAccel::applyQuiescent() const
{
    // A drained phase transitions at the end of its next tick.
    if (applyDone())
        return false;
    // Queued applies execute next tick; queued stores issue requests.
    if (!ap.pendingApplies.empty() || !ap.writes.empty())
        return false;
    if (ap.pendingAuRecords >= auRecordBatch ||
        (ap.pendingAuRecords > 0 &&
         ap.appliedCount == ap.sweepEnd - ap.sweepBegin))
        return false;
    // Sweep prefetch: an open window always attempts an access.
    if (ap.batchesIssued < ap.batchesTotal &&
        vport.inflight() < cfg.applyMaxInflight)
        return false;
    // Commit: the next batch being fully fetched commits vertices.
    if (ap.commitCursor < ap.sweepEnd) {
        const std::uint64_t b =
            (ap.commitCursor - ap.sweepBegin) / applyBatchVerts;
        const std::uint8_t parts_needed = hasConstProp ? 2 : 1;
        if (ap.batchIssuedParts[b] >= parts_needed &&
            ap.batchPending[b] == 0)
            return false;
    }
    return true;
}

Cycle
GraphicionadoAccel::nextEventCycle() const
{
    if (vport.hasResponse() || eport.hasResponse() || wport.hasResponse())
        return 1;
    switch (phase) {
      case Phase::ScatterPhase:
        if (!scatterQuiescent())
            return 1;
        break;
      case Phase::ApplyPhase:
        if (!applyQuiescent())
            return 1;
        break;
      case Phase::Finished:
        break;
    }
    const Cycle horizon = hbm->nextEventCycle();
    return horizon < 1 ? Cycle{1} : horizon;
}

void
GraphicionadoAccel::skipCycles(Cycle cycles)
{
    switch (phase) {
      case Phase::ScatterPhase:
        statScatterCycles += static_cast<double>(cycles);
        break;
      case Phase::ApplyPhase:
        statApplyCycles += static_cast<double>(cycles);
        break;
      case Phase::Finished:
        break;
    }
    hbm->skipCycles(cycles);
    now += cycles;
}

namespace
{

constexpr std::uint32_t kBaselineMarker = 0x47494f31; // "GIO1"

template <typename SER, typename T>
void
saveNestedVec(SER &s, const std::vector<std::vector<T>> &v)
{
    s.writeU64(v.size());
    for (const std::vector<T> &inner : v)
        s.writePodVec(inner);
}

template <typename DES, typename T>
void
restoreNestedVec(DES &d, std::vector<std::vector<T>> &v)
{
    v.resize(static_cast<std::size_t>(d.readU64()));
    for (std::vector<T> &inner : v)
        d.readPodVec(inner);
}

} // namespace

void
GraphicionadoAccel::saveState(sim::Serializer &s) const
{
    s.registerPointer(&vport);
    s.registerPointer(&eport);
    s.registerPointer(&wport);

    sim::Component::saveState(s);
    s.writeMarker(kBaselineMarker);

    s.writePodVec(prop);
    s.writePodVec(tProp);
    s.writePodVec(cProp);
    s.writePodVec(lastReduceAt);
    saveNestedVec(s, activeCur);
    saveNestedVec(s, activeNext);
    s.writeU64(activatedThisIteration);

    for (const Stream &stream : streams) {
        stream.records.saveState(s);
        s.writeU32(stream.edgeCursor);
    }

    s.writeU64(sc.recordsTotal);
    s.writeU64(sc.expectedEdges);
    s.writeU64(sc.batchesTotal);
    s.writeU64(sc.batchesIssued);
    s.writePodVec(sc.batchReady);
    s.writeU64(sc.commitCursor);
    s.writeU64(sc.recordsDone);
    s.writeU64(sc.edgesReduced);
    s.writePodVec(sc.fetch);

    s.writeU32(ap.sweepBegin);
    s.writeU32(ap.sweepEnd);
    s.writeU64(ap.batchesTotal);
    s.writeU64(ap.batchesIssued);
    s.writePodVec(ap.batchIssuedParts);
    s.writePodVec(ap.batchPending);
    s.writeU32(ap.commitCursor);
    s.writeU32(ap.appliedCount);
    s.writePodDeque(ap.pendingApplies);
    s.writeU64(ap.pendingAuRecords);
    s.writeU64(ap.auWriteCursor);
    // std::pair is not trivially copyable; serialize element-wise.
    s.writeU64(ap.writes.size());
    for (const auto &[addr, count] : ap.writes) {
        s.writeU64(addr);
        s.writeU32(count);
    }

    s.writeU8(static_cast<std::uint8_t>(phase));
    s.writeU32(curSlice);
    s.writeU32(iteration);
    s.writeU32(activeBuf);
    s.writeU64(now);
    s.writeU64(runStart);
    s.writeBool(collectPeLoads);
    s.writePodVec(streamLoadThisIteration);
    saveNestedVec(s, streamLoadTrace);

    vport.saveState(s);
    eport.saveState(s);
    wport.saveState(s);
    hbm->saveState(s);
}

void
GraphicionadoAccel::restoreState(sim::Deserializer &d)
{
    d.registerPointer(&vport);
    d.registerPointer(&eport);
    d.registerPointer(&wport);

    sim::Component::restoreState(d);
    d.expectMarker(kBaselineMarker);

    d.readPodVec(prop);
    d.readPodVec(tProp);
    d.readPodVec(cProp);
    d.readPodVec(lastReduceAt);
    restoreNestedVec(d, activeCur);
    restoreNestedVec(d, activeNext);
    activatedThisIteration = d.readU64();

    for (Stream &stream : streams) {
        stream.records.restoreState(d);
        stream.edgeCursor = d.readU32();
    }

    sc.recordsTotal = d.readU64();
    sc.expectedEdges = d.readU64();
    sc.batchesTotal = d.readU64();
    sc.batchesIssued = d.readU64();
    d.readPodVec(sc.batchReady);
    sc.commitCursor = d.readU64();
    sc.recordsDone = d.readU64();
    sc.edgesReduced = d.readU64();
    d.readPodVec(sc.fetch);

    ap.sweepBegin = d.readU32();
    ap.sweepEnd = d.readU32();
    ap.batchesTotal = d.readU64();
    ap.batchesIssued = d.readU64();
    d.readPodVec(ap.batchIssuedParts);
    d.readPodVec(ap.batchPending);
    ap.commitCursor = d.readU32();
    ap.appliedCount = d.readU32();
    d.readPodDeque(ap.pendingApplies);
    ap.pendingAuRecords = d.readU64();
    ap.auWriteCursor = d.readU64();
    ap.writes.clear();
    const std::uint64_t pending_writes = d.readU64();
    for (std::uint64_t i = 0; i < pending_writes; ++i) {
        const Addr addr = d.readU64();
        const unsigned count = d.readU32();
        ap.writes.emplace_back(addr, count);
    }

    phase = static_cast<Phase>(d.readU8());
    curSlice = d.readU32();
    iteration = d.readU32();
    activeBuf = d.readU32();
    now = d.readU64();
    runStart = d.readU64();
    collectPeLoads = d.readBool();
    d.readPodVec(streamLoadThisIteration);
    restoreNestedVec(d, streamLoadTrace);

    vport.restoreState(d);
    eport.restoreState(d);
    wport.restoreState(d);
    hbm->restoreState(d);

    headAct.clear();
    issueWindow.clear();
    if (phase == Phase::ScatterPhase) {
        gds_require(curSlice < activeCur.size(), CheckpointError,
                    "checkpoint scatter slice %u out of range", curSlice);
        for (unsigned s = 0; s < cfg.numStreams; ++s) {
            const Stream &stream = streams[s];
            for (std::size_t i = 0; i < stream.records.size(); ++i) {
                gds_require(stream.records[i] < sc.fetch.size() &&
                                stream.records[i] <
                                    activeCur[curSlice].size(),
                            CheckpointError,
                            "checkpoint stream %u holds record %llu out "
                            "of range", s,
                            static_cast<unsigned long long>(
                                stream.records[i]));
            }
            refreshStream(s);
        }
    }
}

} // namespace gds::baseline
