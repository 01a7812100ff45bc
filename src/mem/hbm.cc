#include "mem/hbm.hh"

#include "common/bitutil.hh"
#include "obs/trace.hh"
#include "sim/checkpoint.hh"

namespace gds::mem
{

namespace
{

/**
 * Expose the protected heap container of a std::priority_queue so
 * checkpoints copy its layout verbatim. Rebuilding the heap on restore
 * (make_heap, or draining and re-pushing) may reorder elements that
 * compare equal — Completion ordering is by time only — and the pop
 * order among equal-time completions is heap-layout-dependent, which
 * would break bit-exact resume.
 */
template <typename T, typename C, typename Cmp>
struct PqOpener : std::priority_queue<T, C, Cmp>
{
    static const C &
    container(const std::priority_queue<T, C, Cmp> &q)
    {
        return q.*&PqOpener::c;
    }

    static C &
    container(std::priority_queue<T, C, Cmp> &q)
    {
        return q.*&PqOpener::c;
    }
};

constexpr std::uint32_t kHbmMarker = 0x48424d31; // "HBM1"

} // namespace

Hbm::Hbm(const HbmConfig &config, sim::Component *parent)
    : sim::Component("hbm", parent),
      cfg(config),
      statReadBytes(&statsGroup(), "readBytes", "bytes read from HBM"),
      statWriteBytes(&statsGroup(), "writeBytes", "bytes written to HBM"),
      statRowHits(&statsGroup(), "rowHits", "row-buffer hits"),
      statRowMisses(&statsGroup(), "rowMisses", "row-buffer misses"),
      statRefreshes(&statsGroup(), "refreshes", "refresh commands issued"),
      statDataBusBusy(&statsGroup(), "dataBusBusy",
                      "channel-cycles of data bus occupancy"),
      statTransactions(&statsGroup(), "transactions",
                       "32 B transactions serviced"),
      statOccupancySum(&statsGroup(), "occupancySum",
                       "sum over cycles of in-flight transactions"),
      statLatencySum(&statsGroup(), "latencySum",
                     "total request latency in cycles"),
      statRequests(&statsGroup(), "requests", "completed requests"),
      statFaultDropped(&statsGroup(), "faultDropped",
                       "responses dropped by fault injection"),
      statFaultDelayed(&statsGroup(), "faultDelayed",
                       "responses delayed by fault injection"),
      statFaultRejected(&statsGroup(), "faultRejected",
                        "requests refused by fault injection")
{
    gds_assert(isPow2(cfg.txBytes), "txBytes must be a power of two");
    gds_assert(cfg.rowBytes % cfg.txBytes == 0,
               "rowBytes must be a multiple of txBytes");
    const std::uint64_t tx_per_row = cfg.rowBytes / cfg.txBytes;
    pow2Geometry = isPow2(cfg.numChannels) && isPow2(tx_per_row) &&
                   isPow2(cfg.banksPerChannel);
    if (pow2Geometry) {
        channelShift = log2Floor(cfg.numChannels);
        rowShift = log2Floor(tx_per_row);
        bankShift = log2Floor(cfg.banksPerChannel);
    }
    channels.reserve(cfg.numChannels);
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        channels.emplace_back(cfg.queueDepth);
        channels[ch].banks.resize(cfg.banksPerChannel);
        // Stagger refresh across channels to avoid artificial beats.
        channels[ch].nextRefreshAt =
            cfg.tRefi / cfg.banksPerChannel / cfg.numChannels * (ch + 1);
    }
}

void
Hbm::mapAddress(Addr tx_addr, unsigned &channel, std::uint32_t &bank,
                std::uint64_t &row) const
{
    // Fine-grained channel interleave at transaction granularity: a
    // sequential stream spreads across all channels, and within a channel
    // walks consecutive columns of one row before moving on (near-perfect
    // row locality for streams, row misses for random access).
    if (pow2Geometry) {
        channel = static_cast<unsigned>(tx_addr & (cfg.numChannels - 1));
        const std::uint64_t rowGlobal = (tx_addr >> channelShift) >> rowShift;
        bank = static_cast<std::uint32_t>(rowGlobal &
                                          (cfg.banksPerChannel - 1));
        row = rowGlobal >> bankShift;
        return;
    }
    channel = static_cast<unsigned>(tx_addr % cfg.numChannels);
    const std::uint64_t local = tx_addr / cfg.numChannels;
    const std::uint64_t txPerRow = cfg.rowBytes / cfg.txBytes;
    const std::uint64_t rowGlobal = local / txPerRow;
    bank = static_cast<std::uint32_t>(rowGlobal % cfg.banksPerChannel);
    row = rowGlobal / cfg.banksPerChannel;
}

bool
Hbm::access(Addr addr, unsigned bytes, bool is_write, std::uint64_t tag,
            HbmPort *port)
{
    gds_assert(bytes > 0, "zero-length memory request");
    gds_assert(port != nullptr, "request needs a response port");

    // Injected admission backpressure: refuse like a full queue would.
    if (fault && fault->rejectRequest()) {
        ++statFaultRejected;
        if (obs::Tracer *t = obs::activeTracer())
            t->instant(t->track(tracePath()), "fault:reject", now);
        return false;
    }

    const Addr first_tx = addr / cfg.txBytes;
    const Addr last_tx = (addr + bytes - 1) / cfg.txBytes;
    const unsigned tx_count = static_cast<unsigned>(last_tx - first_tx + 1);

    // Admission: every target channel must have room. Transactions of one
    // request round-robin over channels, so a request no wider than the
    // channel count puts exactly one transaction on each target channel
    // and admission needs no demand histogram at all.
    if (tx_count <= cfg.numChannels) {
        for (Addr tx = first_tx; tx <= last_tx; ++tx) {
            if (channels[txChannel(tx)].queue.size() >= cfg.queueDepth)
                return false;
        }
    } else {
        demandScratch.assign(cfg.numChannels, 0);
        for (Addr tx = first_tx; tx <= last_tx; ++tx)
            ++demandScratch[txChannel(tx)];
        for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
            if (channels[ch].queue.size() + demandScratch[ch] >
                cfg.queueDepth)
                return false;
        }
    }

    // Allocate a request slot.
    std::uint32_t index;
    if (!freeList.empty()) {
        index = freeList.back();
        freeList.pop_back();
        requests[index] = Request{tag, port, is_write, now};
    } else {
        index = static_cast<std::uint32_t>(requests.size());
        requests.push_back(Request{tag, port, is_write, now});
    }
    requests[index].queuedTx = tx_count;
    port->_inflight += 1;

    for (Addr tx = first_tx; tx <= last_tx; ++tx) {
        unsigned ch;
        std::uint32_t bank;
        std::uint64_t row;
        mapAddress(tx, ch, bank, row);
        Channel &channel = channels[ch];
        const Transaction t{index, bank, row};
        // A transaction landing inside the FR-FCFS window can only pull
        // the channel's issue gate earlier; one behind it changes nothing.
        if (channel.queue.size() < cfg.frfcfsWindow)
            channel.issueGate =
                std::min(channel.issueGate, txGate(channel, t));
        channel.queue.push(t);
    }
    inflightTx += tx_count;
    queuedTxTotal += tx_count;

    // Traffic is accounted at transaction granularity: the device always
    // moves whole 32 B bursts, so a 40 B request costs 64 B of bandwidth.
    const double moved = static_cast<double>(tx_count) * cfg.txBytes;
    if (is_write)
        statWriteBytes += moved;
    else
        statReadBytes += moved;
    return true;
}

void
Hbm::CompletionFifo::push(Cycle done)
{
    if (count == slots.size()) {
        // Grow by doubling, unrolling the ring into the new storage.
        std::vector<Cycle> grown(slots.empty() ? 16 : 2 * slots.size());
        for (std::size_t i = 0; i < count; ++i)
            grown[i] = at(i);
        slots.swap(grown);
        head = 0;
    }
    slots[(head + count) & (slots.size() - 1)] = done;
    ++count;
}

void
Hbm::recomputeIssueGate(Channel &channel) const
{
    Cycle gate = kNeverEvent;
    const std::size_t window =
        std::min<std::size_t>(channel.queue.size(), cfg.frfcfsWindow);
    for (std::size_t i = 0; i < window; ++i)
        gate = std::min(gate, txGate(channel, channel.queue[i]));
    channel.issueGate = gate;
}

void
Hbm::serviceChannel(unsigned ch)
{
    Channel &channel = channels[ch];

    // Staggered per-bank refresh (HBM REFpb): one bank at a time goes
    // unavailable for tRfcPerBank while the rest of the channel keeps
    // serving, every tREFI / banksPerChannel cycles.
    if (now >= channel.nextRefreshAt) {
        Bank &bank = channel.banks[channel.refreshBank];
        bank.openRow = noRow;
        bank.nextReady = std::max(bank.nextReady, now + cfg.tRfcPerBank);
        channel.refreshBank =
            (channel.refreshBank + 1) % cfg.banksPerChannel;
        channel.nextRefreshAt += cfg.tRefi / cfg.banksPerChannel;
        ++statRefreshes;
        recomputeIssueGate(channel);
    }
    // The gate is exact, so before it no window entry is issuable and
    // the scan below would find nothing.
    if (now < channel.issueGate)
        return;

    // FR-FCFS: prefer the oldest row hit within the lookahead window,
    // otherwise the oldest transaction whose bank is ready and whose
    // activate is allowed by tRRD.
    const bool can_activate = now >= channel.nextActivateAt;
    const std::size_t window =
        std::min<std::size_t>(channel.queue.size(), cfg.frfcfsWindow);
    std::size_t pick = window; // sentinel: nothing issuable
    std::size_t oldest_miss = window;
    for (std::size_t i = 0; i < window; ++i) {
        const Transaction &tx = channel.queue[i];
        const Bank &bank = channel.banks[tx.bank];
        if (bank.nextReady > now)
            continue;
        if (bank.openRow == tx.row) {
            pick = i;
            break;
        }
        if (can_activate && oldest_miss == window)
            oldest_miss = i;
    }
    if (pick == window)
        pick = oldest_miss;
    gds_assert(pick != window, "HBM issue gate passed with no issuable "
                               "transaction in the window");

    const Transaction tx = channel.queue.removeAt(pick);

    Bank &bank = channel.banks[tx.bank];
    Cycle column_at;
    if (bank.openRow == tx.row) {
        ++statRowHits;
        column_at = now;
    } else {
        ++statRowMisses;
        const Cycle precharge = bank.openRow == noRow ? 0 : cfg.tRp;
        column_at = now + precharge + cfg.tRcd;
        bank.openRow = tx.row;
        channel.nextActivateAt = now + cfg.tRrd;
    }
    const Cycle data_start =
        std::max(column_at + cfg.tCl, channel.busFreeAt);
    const Cycle done = data_start + cfg.tBurst;
    channel.busFreeAt = done;
    bank.nextReady = column_at + cfg.tCcd;
    statDataBusBusy += static_cast<double>(cfg.tBurst);
    ++statTransactions;
    channel.completions.push(done);
    recomputeIssueGate(channel);

    // Once the last transaction issues, the request's delivery cycle is
    // fixed: from here on only that cycle (not every burst landing) is a
    // visible event for the fast-forward horizon.
    Request &req = requests[tx.requestIndex];
    if (done > req.finishAt)
        req.finishAt = done;
    gds_assert(req.queuedTx > 0, "issued more transactions than queued");
    --queuedTxTotal;
    if (--req.queuedTx == 0)
        requestFinishes.push(Completion{req.finishAt, tx.requestIndex});
}

void
Hbm::deliverResponses()
{
    // Every burst of a request has landed by its finish cycle, so the
    // response is due exactly then. Equal-cycle entries pop in heap
    // order; requesters act on responses only at their next tick, so the
    // order within one cycle is unobservable.
    while (!requestFinishes.empty() && requestFinishes.top().at <= now) {
        const std::uint32_t index = requestFinishes.top().requestIndex;
        requestFinishes.pop();
        Request &req = requests[index];
        if (req.faultChecked) {
            // A delayed redelivery: it held one occupancy slot meanwhile.
            --inflightTx;
        } else if (fault) {
            req.faultChecked = true;
            if (fault->dropResponse()) {
                // The response is lost on the wire: the requester keeps
                // waiting (its port still reports the request in flight),
                // which the run watchdog must catch.
                ++statFaultDropped;
                if (obs::Tracer *t = obs::activeTracer())
                    t->instant(t->track(tracePath()), "fault:drop", now);
                freeList.push_back(index);
                continue;
            }
            if (const Cycle delay = fault->responseDelay()) {
                ++statFaultDelayed;
                if (obs::Tracer *t = obs::activeTracer())
                    t->instant(t->track(tracePath()), "fault:delay", now);
                ++inflightTx;
                requestFinishes.push(Completion{now + delay, index});
                continue;
            }
        }
        req.port->responses.push_back(req.tag);
        req.port->_inflight -= 1;
        statLatencySum += static_cast<double>(now - req.issuedAt);
        ++statRequests;
        progressed(now);
        freeList.push_back(index);
    }
}

void
Hbm::tick()
{
    deliverResponses();
    for (unsigned ch = 0; ch < cfg.numChannels; ++ch) {
        Channel &channel = channels[ch];
        while (!channel.completions.empty() &&
               channel.completions.front() <= now) {
            channel.completions.pop();
            --inflightTx;
        }
        // Nothing queued and no refresh due: the channel provably does
        // nothing this cycle, so skip the call entirely.
        if (channel.queue.empty() && now < channel.nextRefreshAt)
            continue;
        serviceChannel(ch);
    }
    statOccupancySum += static_cast<double>(inflightTx);
    ++now;
}

Cycle
Hbm::nextEventCycle() const
{
    // The tick i cycles from now runs with the local clock at now + i - 1,
    // so an event gated at absolute cycle G is reached by tick G - now + 1.
    // Only request-finishing completions are visible events: the bursts a
    // multi-transaction request lands along the way merely decrement its
    // pending count, which skipCycles() replays in bulk.
    Cycle horizon = kNeverEvent;
    if (!requestFinishes.empty()) {
        const Cycle at = requestFinishes.top().at;
        horizon = at > now ? at - now + 1 : 1;
    }
    if (queuedTxTotal == 0)
        return horizon; // nothing waiting to issue: O(1) in a pure wait
    for (const Channel &channel : channels) {
        // Empty queues hold kNeverEvent. A refresh inside the window can
        // only delay a gate further (close the row, raise nextReady), so
        // the pre-refresh gate is a safe lower bound.
        const Cycle gate = channel.issueGate;
        if (gate == kNeverEvent)
            continue;
        if (gate <= now)
            return 1;
        horizon = std::min(horizon, gate - now + 1);
    }
    return horizon;
}

void
Hbm::skipCycles(Cycle cycles)
{
    if (cycles == 0)
        return;
    const Cycle last = now + cycles - 1;
    gds_assert(requestFinishes.empty() || requestFinishes.top().at > last,
               "fast-forward across a matured HBM request completion");

    // Retire the burst completions maturing inside the window exactly as
    // the skipped ticks would have. Naive ticking adds the in-flight count
    // once per cycle, after that cycle's retirements, so a burst landing
    // at cycle `at` drops out of the last (now + cycles - at) cycles'
    // sums. None of them finishes a request (the assert above), so no
    // port response, fault draw, latency stat or progress mark is due.
    std::uint64_t occupancy = cycles * inflightTx;
    for (Channel &channel : channels) {
        while (!channel.completions.empty() &&
               channel.completions.front() <= last) {
            const Cycle at = channel.completions.front();
            gds_assert(at >= now, "stale burst completion before a skip");
            channel.completions.pop();
            occupancy -= now + cycles - at;
            --inflightTx;
        }

        // Replay the refreshes naive ticking would have issued inside the
        // window, at their exact scheduled cycles; nothing else can
        // happen in a window nextEventCycle() declared pure.
        // nextRefreshAt >= now here because the preceding tick fired
        // every refresh due by then.
        bool refreshed = false;
        while (channel.nextRefreshAt <= last) {
            Bank &bank = channel.banks[channel.refreshBank];
            bank.openRow = noRow;
            bank.nextReady = std::max(
                bank.nextReady, channel.nextRefreshAt + cfg.tRfcPerBank);
            channel.refreshBank =
                (channel.refreshBank + 1) % cfg.banksPerChannel;
            channel.nextRefreshAt += cfg.tRefi / cfg.banksPerChannel;
            ++statRefreshes;
            refreshed = true;
        }
        if (refreshed)
            recomputeIssueGate(channel);
    }
    statOccupancySum += static_cast<double>(occupancy);
    now += cycles;
}

std::string
Hbm::debugState() const
{
    std::size_t queued = 0;
    std::size_t landing = 0;
    for (const Channel &ch : channels) {
        queued += ch.queue.size();
        landing += ch.completions.size();
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "inflightTx=%llu queuedTx=%zu completions=%zu",
                  static_cast<unsigned long long>(inflightTx), queued,
                  landing);
    return buf;
}

double
Hbm::bandwidthUtilization() const
{
    if (now == 0)
        return 0.0;
    const double peak = cfg.peakBytesPerCycle() * static_cast<double>(now);
    return totalBytes() / peak;
}

double
Hbm::rowHitRate() const
{
    const double issued = statRowHits.value() + statRowMisses.value();
    return issued == 0.0 ? 0.0 : statRowHits.value() / issued;
}

void
Hbm::saveState(sim::Serializer &s) const
{
    using Pq = PqOpener<Completion, std::vector<Completion>,
                        std::greater<Completion>>;
    sim::Component::saveState(s);
    s.writeMarker(kHbmMarker);
    s.writeU64(channels.size());
    for (const Channel &channel : channels) {
        channel.queue.saveState(s);
        s.writeU64(channel.completions.size());
        for (std::size_t i = 0; i < channel.completions.size(); ++i)
            s.writeU64(channel.completions.at(i));
        s.writePodVec(channel.banks);
        s.writeU64(channel.busFreeAt);
        s.writeU64(channel.nextActivateAt);
        s.writeU64(channel.nextRefreshAt);
        s.writeU32(channel.refreshBank);
    }
    // The request slab travels field-by-field: the port is a live object
    // reference (registry index), so Request is not memcpy-safe. Free
    // slots keep their stale-but-registered port pointer, preserving the
    // slab byte-for-byte.
    s.writeU64(requests.size());
    for (const Request &req : requests) {
        s.writeU64(req.tag);
        s.writePointer(req.port);
        s.writeBool(req.isWrite);
        s.writeU64(req.issuedAt);
        s.writeBool(req.faultChecked);
        s.writeU32(req.queuedTx);
        s.writeU64(req.finishAt);
    }
    s.writePodVec(freeList);
    s.writePodVec(Pq::container(requestFinishes));
    s.writeU64(inflightTx);
    s.writeU64(queuedTxTotal);
    s.writeU64(now);
}

void
Hbm::restoreState(sim::Deserializer &d)
{
    using Pq = PqOpener<Completion, std::vector<Completion>,
                        std::greater<Completion>>;
    sim::Component::restoreState(d);
    d.expectMarker(kHbmMarker);
    const std::uint64_t nch = d.readU64();
    gds_require(nch == channels.size(), CheckpointError,
                "checkpoint has %llu HBM channels, this config has %zu",
                static_cast<unsigned long long>(nch), channels.size());
    for (Channel &channel : channels) {
        channel.queue.restoreState(d);
        channel.completions.clear();
        const std::uint64_t landing = d.readU64();
        gds_require(landing <= d.remaining() / sizeof(Cycle),
                    CheckpointError,
                    "checkpoint truncated: %llu HBM burst completions",
                    static_cast<unsigned long long>(landing));
        Cycle prev = 0;
        for (std::uint64_t i = 0; i < landing; ++i) {
            const Cycle done = d.readU64();
            gds_require(i == 0 || done > prev, CheckpointError,
                        "HBM burst completions out of order");
            channel.completions.push(done);
            prev = done;
        }
        d.readPodVec(channel.banks);
        gds_require(channel.banks.size() == cfg.banksPerChannel,
                    CheckpointError,
                    "checkpoint has %zu banks per channel, config has %u",
                    channel.banks.size(), cfg.banksPerChannel);
        channel.busFreeAt = d.readU64();
        channel.nextActivateAt = d.readU64();
        channel.nextRefreshAt = d.readU64();
        channel.refreshBank = d.readU32();
    }
    const std::uint64_t nreq = d.readU64();
    requests.clear();
    requests.reserve(static_cast<std::size_t>(nreq));
    for (std::uint64_t i = 0; i < nreq; ++i) {
        Request req{};
        req.tag = d.readU64();
        req.port = d.readPointer<HbmPort>();
        req.isWrite = d.readBool();
        req.issuedAt = d.readU64();
        req.faultChecked = d.readBool();
        req.queuedTx = d.readU32();
        req.finishAt = d.readU64();
        requests.push_back(req);
    }
    d.readPodVec(freeList);
    d.readPodVec(Pq::container(requestFinishes));
    inflightTx = d.readU64();
    queuedTxTotal = d.readU64();
    now = d.readU64();
    for (Channel &channel : channels) {
        for (std::size_t i = 0; i < channel.queue.size(); ++i) {
            gds_require(channel.queue[i].bank < cfg.banksPerChannel &&
                            channel.queue[i].requestIndex < requests.size(),
                        CheckpointError,
                        "HBM transaction references bank %u / request %u "
                        "out of range",
                        channel.queue[i].bank,
                        channel.queue[i].requestIndex);
        }
        recomputeIssueGate(channel);
    }
}

} // namespace gds::mem
