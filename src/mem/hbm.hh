/**
 * @file
 * Cycle-level HBM 1.0 model (the role Ramulator plays in the paper's
 * methodology).
 *
 * Geometry: N independent channels (32 by default; 32 x 16 B/cycle at the
 * 1 GHz accelerator clock = 512 GB/s peak, Table 3), each with its own
 * command issue slot, data bus, and banks. Requests are split into 32 B
 * transactions, queued per channel, and scheduled FR-FCFS (row hits first
 * within a lookahead window). Row misses pay precharge + activate + CAS;
 * hits pay CAS only; periodic refresh blocks a channel for tRFC every
 * tREFI. These are exactly the behaviours the paper's results lean on:
 * streaming accesses ride open rows at near-peak bandwidth while random
 * accesses suffer row misses and queueing.
 *
 * Requesters own a Port; responses (request tags) appear in the port's
 * response queue once every transaction of the request has completed.
 *
 * Host cost scales with the work done in a cycle, not with the number of
 * queued transactions: each channel keeps a FIFO of its in-flight burst
 * completion cycles (ascending by construction) and caches the earliest
 * cycle its FR-FCFS window can issue, so a waiting channel is neither
 * rescanned nor re-sorted. See DESIGN.md (Simulation performance).
 */

#pragma once

#include <deque>
#include <queue>
#include <vector>

#include "sim/component.hh"
#include "sim/fault.hh"
#include "sim/queues.hh"

namespace gds::mem
{

/** HBM 1.0 timing/geometry, in accelerator cycles (1 cycle = 1 ns). */
struct HbmConfig
{
    unsigned numChannels = 32;
    unsigned banksPerChannel = 16;
    unsigned rowBytes = 1024;
    unsigned txBytes = 32;  ///< transaction (burst) granularity
    Cycle tBurst = 2;       ///< data-bus occupancy per transaction
    Cycle tCl = 14;         ///< CAS latency
    Cycle tRcd = 14;        ///< activate-to-column
    Cycle tRp = 14;         ///< precharge
    Cycle tCcd = 2;         ///< column-to-column, same bank
    Cycle tRrd = 4;         ///< activate-to-activate, same channel
    Cycle tRefi = 3900;     ///< all-bank refresh interval per channel
    Cycle tRfcPerBank = 60; ///< per-bank refresh duration (staggered)
    unsigned queueDepth = 64;   ///< per-channel transaction queue
    unsigned frfcfsWindow = 8;  ///< FR-FCFS lookahead

    /** Peak bandwidth in bytes per cycle. */
    double
    peakBytesPerCycle() const
    {
        return static_cast<double>(numChannels) * txBytes / tBurst;
    }
};

/** Asynchronous memory interface handed to each requester. */
class HbmPort
{
  public:
    /** True when a completed request tag is waiting. */
    bool hasResponse() const { return !responses.empty(); }

    /** Pop the oldest completed request tag. */
    std::uint64_t
    popResponse()
    {
        gds_assert(!responses.empty(), "no response pending");
        const std::uint64_t tag = responses.front();
        responses.pop_front();
        return tag;
    }

    /** Requests issued but not yet fully completed. */
    std::uint64_t inflight() const { return _inflight; }

    /**
     * Checkpoint hook: pending response tags plus the in-flight count.
     * The owning requester saves its ports alongside its own state (the
     * Hbm serializes port *references* through the pointer registry, not
     * port contents).
     */
    template <typename SER>
    void
    saveState(SER &s) const
    {
        s.writePodDeque(responses);
        s.writeU64(_inflight);
    }

    template <typename DES>
    void
    restoreState(DES &d)
    {
        d.readPodDeque(responses);
        _inflight = d.readU64();
    }

  private:
    friend class Hbm;
    std::deque<std::uint64_t> responses;
    std::uint64_t _inflight = 0;
};

/** The memory device. Tick once per accelerator cycle. */
class Hbm : public sim::Component
{
  public:
    Hbm(const HbmConfig &config, sim::Component *parent);

    /**
     * Try to enqueue a request. Returns false (and changes nothing) when
     * any target channel queue lacks space; the caller retries next cycle.
     *
     * @param addr byte address
     * @param bytes request length (split into 32 B transactions)
     * @param is_write write request (timed like a read, counted separately)
     * @param tag requester-chosen id returned on completion
     * @param port response destination
     */
    bool access(Addr addr, unsigned bytes, bool is_write, std::uint64_t tag,
                HbmPort *port);

    void tick() override;
    bool busy() const override { return inflightTx > 0; }

    /**
     * Earliest tick with an externally visible event: the min over the
     * earliest *request*-finishing completion (the cycle a port response
     * appears) and, per queued transaction in each channel's FR-FCFS
     * window, its bank-ready / activate gate. Intermediate transaction
     * completions of a multi-burst request are internal bookkeeping and
     * do not bound the horizon (skipCycles() retires them in bulk);
     * refreshes likewise only delay issue and are replayed exactly.
     */
    Cycle nextEventCycle() const override;

    /**
     * Replay @p cycles pure-wait ticks: retire every intermediate
     * transaction completion maturing in the window at its exact cycle
     * (piecewise-integrating occupancy around each), fire every scheduled
     * refresh, advance the local clock. Asserts no request finishes
     * inside the window; issue gates never fall inside it because they
     * bound the horizon the window was derived from.
     */
    void skipCycles(Cycle cycles) override;

    bool supportsFastForward() const override { return true; }

    std::string debugState() const override;

    /**
     * Checkpoint every live timing structure: per-channel queues, bank
     * rows, bus/activate/refresh clocks and burst-completion FIFOs, the
     * request slab (ports travel as pointer-registry references —
     * register every HbmPort on the Serializer/Deserializer before
     * calling), the free list, and the request-finish heap copied
     * verbatim so equal-time pops replay in the exact pre-checkpoint
     * order. Geometry and timing come from the constructor's config and
     * are not serialized; the per-channel issue gates are rebuilt.
     */
    void saveState(sim::Serializer &s) const override;
    void restoreState(sim::Deserializer &d) override;

    /** Activity = transactions issued (counter-track unit: 32 B bursts). */
    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(statTransactions.value());
    }

    /**
     * Attach (or detach, with nullptr) a fault injector. When attached,
     * responses may be delayed or dropped and requests refused admission
     * according to the injector's plan.
     */
    void setFaultInjector(sim::FaultInjector *injector) { fault = injector; }
    const sim::FaultInjector *faultInjector() const { return fault; }

    const HbmConfig &config() const { return cfg; }

    /** Total bytes moved (reads + writes, transaction-granular). */
    double totalBytes() const
    {
        return statReadBytes.value() + statWriteBytes.value();
    }

    /** Cumulative bytes read (sampler probe; transaction-granular). */
    double readBytes() const { return statReadBytes.value(); }

    /** Cumulative bytes written (sampler probe; transaction-granular). */
    double writeBytes() const { return statWriteBytes.value(); }

    /** Achieved / peak bandwidth over the elapsed simulated time. */
    double bandwidthUtilization() const;

    /** Row-hit fraction of all issued transactions. */
    double rowHitRate() const;

    /** Cycles this model has been ticked. */
    Cycle elapsed() const { return now; }

    /** Mean number of in-flight transactions per cycle. */
    double
    meanOccupancy() const
    {
        return now == 0 ? 0.0 : statOccupancySum.value() / now;
    }

    /** Mean request latency (accept to last-transaction completion). */
    double
    meanLatency() const
    {
        return statRequests.value() == 0.0
                   ? 0.0
                   : statLatencySum.value() / statRequests.value();
    }

  private:
    struct Request
    {
        std::uint64_t tag;
        HbmPort *port;
        bool isWrite;
        Cycle issuedAt;
        /** Injector consulted for this request. A finish event popped for
         *  a request that is already checked is a delayed redelivery. */
        bool faultChecked = false;
        unsigned queuedTx = 0; ///< transactions not yet issued
        Cycle finishAt = 0;    ///< max completion time issued so far
    };

    struct Transaction
    {
        std::uint32_t requestIndex;
        std::uint32_t bank;
        std::uint64_t row;
    };

    struct Bank
    {
        std::uint64_t openRow = noRow;
        Cycle nextReady = 0;
    };

    /**
     * Completion cycles of a channel's issued bursts, oldest first. A
     * channel's data bus serializes its bursts (done = max(column + tCL,
     * busFreeAt) + tBurst, then busFreeAt = done), so the cycles strictly
     * increase and push order is completion order. Unbounded (the bus
     * can fall behind the issue slot), so it grows by doubling and then
     * never allocates again.
     */
    class CompletionFifo
    {
      public:
        bool empty() const { return count == 0; }
        std::size_t size() const { return count; }
        Cycle front() const { return slots[head]; }
        Cycle at(std::size_t i) const
        {
            return slots[(head + i) & (slots.size() - 1)];
        }
        void pop()
        {
            head = (head + 1) & (slots.size() - 1);
            --count;
        }
        void push(Cycle done);
        void clear() { head = count = 0; }

      private:
        std::vector<Cycle> slots; ///< power-of-two capacity (or empty)
        std::size_t head = 0;
        std::size_t count = 0;
    };

    struct Channel
    {
        explicit Channel(unsigned queue_depth) : queue(queue_depth) {}

        sim::BoundedQueue<Transaction> queue; ///< FR-FCFS order = age
        CompletionFifo completions;           ///< in-flight bursts
        std::vector<Bank> banks;
        Cycle busFreeAt = 0;
        Cycle nextActivateAt = 0; ///< tRRD gate
        Cycle nextRefreshAt = 0;
        unsigned refreshBank = 0; ///< round-robin per-bank refresh index
        /**
         * Earliest cycle at which some transaction in the FR-FCFS window
         * can issue (kNeverEvent when the queue is empty). Derived from
         * the window and the bank/tRRD state, and recomputed whenever one
         * of those changes (issue, refresh, a push into the window,
         * restore), so it is exact: a cycle before it issues nothing.
         */
        Cycle issueGate = kNeverEvent;
    };

    struct Completion
    {
        Cycle at;
        std::uint32_t requestIndex;
        /** Explicit so checkpointed heap images carry no stray bytes. */
        std::uint32_t zero = 0;
        bool operator>(const Completion &o) const { return at > o.at; }
    };

    static constexpr std::uint64_t noRow = ~0ULL;

    /** Map a transaction-aligned address to (channel, bank, row). */
    void mapAddress(Addr tx_addr, unsigned &channel, std::uint32_t &bank,
                    std::uint64_t &row) const;

    /** Channel of a transaction-aligned address (hot-path helper). */
    unsigned
    txChannel(Addr tx_addr) const
    {
        return static_cast<unsigned>(
            pow2Geometry ? tx_addr & (cfg.numChannels - 1)
                         : tx_addr % cfg.numChannels);
    }

    /** Issue gate of one queued transaction (see Channel::issueGate). */
    Cycle
    txGate(const Channel &channel, const Transaction &tx) const
    {
        const Bank &bank = channel.banks[tx.bank];
        return bank.openRow == tx.row
                   ? bank.nextReady
                   : std::max(bank.nextReady, channel.nextActivateAt);
    }

    void recomputeIssueGate(Channel &channel) const;
    void serviceChannel(unsigned ch);
    void deliverResponses();

    // gds-ckpt: skip(cfg) construction-time geometry/timing config; the
    // restore path verifies the config hash instead of serializing it
    HbmConfig cfg;
    /**
     * Address mapping runs once per 32 B transaction, so with the default
     * all-power-of-two geometry the channel/bank/row splits use shifts and
     * masks instead of 64-bit divisions by runtime values.
     */
    // gds-ckpt: skip(pow2Geometry) derived from cfg in the constructor
    bool pow2Geometry = false;
    // gds-ckpt: skip(channelShift) derived from cfg in the constructor
    unsigned channelShift = 0;
    // gds-ckpt: skip(rowShift) derived from cfg in the constructor
    unsigned rowShift = 0;  ///< log2(rowBytes / txBytes)
    // gds-ckpt: skip(bankShift) derived from cfg in the constructor
    unsigned bankShift = 0; ///< log2(banksPerChannel)
    std::vector<Channel> channels;
    std::vector<Request> requests;       ///< slab of live requests
    std::vector<std::uint32_t> freeList; ///< recycled request slots
    /**
     * The only response delivery path: one entry per fully-issued
     * request, stamped with its last transaction's completion time (the
     * cycle its port response appears), plus one per delayed-fault
     * redelivery at the deferred time. Burst completions (the channel
     * FIFOs) only retire occupancy, so only these bound the idle horizon.
     */
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        requestFinishes;
    // gds-ckpt: skip(demandScratch) per-call scratch, overwritten before
    // every use in serviceChannel()
    std::vector<unsigned> demandScratch; ///< per-channel admission counts
    std::uint64_t inflightTx = 0;
    std::uint64_t queuedTxTotal = 0; ///< not-yet-issued tx across channels
    Cycle now = 0;
    // gds-ckpt: skip(fault) non-owning injector hook, re-attached by the
    // harness after restore (fault campaigns are not checkpointable)
    sim::FaultInjector *fault = nullptr;

    stats::Scalar statReadBytes;
    stats::Scalar statWriteBytes;
    stats::Scalar statRowHits;
    stats::Scalar statRowMisses;
    stats::Scalar statRefreshes;
    stats::Scalar statDataBusBusy;
    stats::Scalar statTransactions;
    stats::Scalar statOccupancySum; ///< sum over cycles of in-flight tx
    stats::Scalar statLatencySum;   ///< total request latency (cycles)
    stats::Scalar statRequests;     ///< completed requests
    stats::Scalar statFaultDropped; ///< responses dropped by fault injection
    stats::Scalar statFaultDelayed; ///< responses delayed by fault injection
    stats::Scalar statFaultRejected;///< requests refused by fault injection
};

} // namespace gds::mem
