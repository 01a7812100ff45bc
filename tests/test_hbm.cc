/**
 * @file
 * Tests for the cycle-level HBM model: protocol invariants (latency floors,
 * completion ordering), row-buffer behaviour (streams hit, random misses),
 * bandwidth ceilings, refresh, backpressure and statistics.
 */

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "common/bitutil.hh"
#include "common/rng.hh"
#include "mem/hbm.hh"
#include "sim/fault.hh"

namespace gds::mem
{
namespace
{

struct Fixture
{
    explicit Fixture(HbmConfig config = {})
        : hbm(config, nullptr)
    {}

    /** Tick until the port has a response; returns cycles waited. */
    Cycle
    waitResponse(HbmPort &port, Cycle limit = 100000)
    {
        Cycle waited = 0;
        while (!port.hasResponse()) {
            hbm.tick();
            gds_assert(++waited < limit, "no response within %llu cycles",
                       static_cast<unsigned long long>(limit));
        }
        return waited;
    }

    /** Drain the device completely. */
    void
    drain()
    {
        while (hbm.busy())
            hbm.tick();
    }

    Hbm hbm;
};

TEST(Hbm, SingleReadCompletesWithRealisticLatency)
{
    Fixture f;
    HbmPort port;
    ASSERT_TRUE(f.hbm.access(0, 32, false, 7, &port));
    EXPECT_EQ(port.inflight(), 1u);
    const Cycle latency = f.waitResponse(port);
    EXPECT_EQ(port.popResponse(), 7u);
    EXPECT_EQ(port.inflight(), 0u);
    // Cold access: at least tRCD + tCL + tBurst.
    const auto &cfg = f.hbm.config();
    EXPECT_GE(latency, cfg.tRcd + cfg.tCl + cfg.tBurst);
    EXPECT_LE(latency, cfg.tRp + cfg.tRcd + cfg.tCl + cfg.tBurst + 5);
}

TEST(Hbm, MultiTransactionRequestCompletesOnce)
{
    Fixture f;
    HbmPort port;
    // 256 bytes = 8 transactions across 8 channels.
    ASSERT_TRUE(f.hbm.access(0, 256, false, 42, &port));
    f.waitResponse(port);
    EXPECT_EQ(port.popResponse(), 42u);
    EXPECT_FALSE(port.hasResponse());
    EXPECT_EQ(f.hbm.statsGroup().scalar("transactions").value(), 8.0);
}

TEST(Hbm, UnalignedRequestCoversBothTransactions)
{
    Fixture f;
    HbmPort port;
    // 8 bytes straddling a 32 B boundary -> 2 transactions.
    ASSERT_TRUE(f.hbm.access(28, 8, false, 1, &port));
    f.waitResponse(port);
    port.popResponse();
    EXPECT_EQ(f.hbm.statsGroup().scalar("transactions").value(), 2.0);
}

TEST(Hbm, ReadWriteBytesAccounted)
{
    Fixture f;
    HbmPort port;
    ASSERT_TRUE(f.hbm.access(0, 64, false, 1, &port));
    ASSERT_TRUE(f.hbm.access(4096, 128, true, 2, &port));
    f.drain();
    EXPECT_EQ(f.hbm.statsGroup().scalar("readBytes").value(), 64.0);
    EXPECT_EQ(f.hbm.statsGroup().scalar("writeBytes").value(), 128.0);
    EXPECT_EQ(f.hbm.totalBytes(), 192.0);
}

TEST(Hbm, StreamingAccessRidesOpenRows)
{
    HbmConfig cfg;
    Fixture f(cfg);
    HbmPort port;
    // Stream 64 KB sequentially in 256 B requests.
    Addr addr = 0;
    unsigned outstanding = 0;
    while (addr < 65536 || outstanding > 0) {
        if (addr < 65536 && f.hbm.access(addr, 256, false, addr, &port)) {
            addr += 256;
            ++outstanding;
        }
        f.hbm.tick();
        while (port.hasResponse()) {
            port.popResponse();
            --outstanding;
        }
    }
    EXPECT_GT(f.hbm.rowHitRate(), 0.9);
}

TEST(Hbm, RandomAccessMissesRows)
{
    Fixture f;
    HbmPort port;
    Rng rng(3);
    unsigned issued = 0;
    unsigned completed = 0;
    while (completed < 2000) {
        if (issued < 2000) {
            // Random 32 B accesses over 64 MB.
            const Addr addr = alignDown(rng.below(64 * 1024 * 1024), 32);
            if (f.hbm.access(addr, 32, false, issued, &port))
                ++issued;
        }
        f.hbm.tick();
        while (port.hasResponse()) {
            port.popResponse();
            ++completed;
        }
    }
    EXPECT_LT(f.hbm.rowHitRate(), 0.3);
}

TEST(Hbm, StreamingBandwidthApproachesPeak)
{
    Fixture f;
    HbmPort port;
    // Saturate with sequential traffic for a fixed window.
    Addr addr = 0;
    for (Cycle c = 0; c < 20000; ++c) {
        while (f.hbm.access(addr, 512, false, addr, &port))
            addr += 512;
        f.hbm.tick();
        while (port.hasResponse())
            port.popResponse();
    }
    // Achieved bandwidth should exceed 70% of peak under pure streaming
    // (refresh and turnaround keep it below 100%).
    EXPECT_GT(f.hbm.bandwidthUtilization(), 0.7);
    EXPECT_LE(f.hbm.bandwidthUtilization(), 1.0);
}

TEST(Hbm, RandomBandwidthWellBelowStreaming)
{
    Fixture f;
    HbmPort port;
    Rng rng(5);
    for (Cycle c = 0; c < 20000; ++c) {
        for (int k = 0; k < 32; ++k) {
            const Addr addr = alignDown(rng.below(256 * 1024 * 1024), 32);
            if (!f.hbm.access(addr, 32, false, c * 32 + k, &port))
                break;
        }
        f.hbm.tick();
        while (port.hasResponse())
            port.popResponse();
    }
    EXPECT_LT(f.hbm.bandwidthUtilization(), 0.5);
}

TEST(Hbm, BackpressureWhenQueuesFull)
{
    HbmConfig cfg;
    cfg.queueDepth = 4;
    Fixture f(cfg);
    HbmPort port;
    // Hammer one channel (stride = numChannels * txBytes keeps the same
    // channel) without ticking; admission must eventually refuse.
    bool refused = false;
    for (int i = 0; i < 100; ++i) {
        const Addr addr = static_cast<Addr>(i) * cfg.numChannels *
                          cfg.txBytes;
        if (!f.hbm.access(addr, 32, false, i, &port)) {
            refused = true;
            break;
        }
    }
    EXPECT_TRUE(refused);
    f.drain();
}

TEST(Hbm, RefusedAccessChangesNothing)
{
    HbmConfig cfg;
    cfg.queueDepth = 2;
    Fixture f(cfg);
    HbmPort port;
    int accepted = 0;
    for (int i = 0; i < 50; ++i) {
        const Addr addr = static_cast<Addr>(i) * cfg.numChannels *
                          cfg.txBytes;
        if (f.hbm.access(addr, 32, false, i, &port))
            ++accepted;
    }
    const double bytes = f.hbm.totalBytes();
    EXPECT_EQ(bytes, 32.0 * accepted);
    f.drain();
    // Exactly the accepted requests complete.
    int responses = 0;
    while (port.hasResponse()) {
        port.popResponse();
        ++responses;
    }
    EXPECT_EQ(responses, accepted);
}

TEST(Hbm, RefreshesHappen)
{
    Fixture f;
    HbmPort port;
    for (Cycle c = 0; c < 10000; ++c)
        f.hbm.tick();
    // 32 channels, tREFI 3900: ~2.5 refreshes per channel in 10k cycles.
    EXPECT_GT(f.hbm.statsGroup().scalar("refreshes").value(), 32.0);
}

TEST(Hbm, PeakBandwidthConfig)
{
    HbmConfig cfg;
    // Table 3: 512 GB/s at 1 GHz = 512 B/cycle.
    EXPECT_EQ(cfg.peakBytesPerCycle(), 512.0);
}

TEST(Hbm, ResponsesPreserveWorkConservation)
{
    Fixture f;
    HbmPort a;
    HbmPort b;
    int issued_a = 0;
    int issued_b = 0;
    Rng rng(9);
    for (Cycle c = 0; c < 5000; ++c) {
        if (c % 2 == 0 &&
            f.hbm.access(alignDown(rng.below(1 << 20), 32), 32, false,
                         issued_a, &a))
            ++issued_a;
        if (c % 3 == 0 &&
            f.hbm.access(alignDown(rng.below(1 << 20), 32), 64, true,
                         issued_b, &b))
            ++issued_b;
        f.hbm.tick();
    }
    f.drain();
    int got_a = 0;
    int got_b = 0;
    while (a.hasResponse()) {
        a.popResponse();
        ++got_a;
    }
    while (b.hasResponse()) {
        b.popResponse();
        ++got_b;
    }
    EXPECT_EQ(got_a, issued_a);
    EXPECT_EQ(got_b, issued_b);
    EXPECT_FALSE(f.hbm.busy());
}

TEST(HbmDeath, ZeroLengthRequestPanics)
{
    Fixture f;
    HbmPort port;
    EXPECT_DEATH((void)f.hbm.access(0, 0, false, 0, &port), "zero-length");
}

} // namespace
} // namespace gds::mem

namespace gds::mem
{
namespace
{

TEST(Hbm, TrrdLimitsActivateRate)
{
    // All-miss traffic to distinct banks: without tRRD the channel could
    // activate every cycle; with tRRD=4 misses are spaced apart.
    HbmConfig fast_cfg;
    fast_cfg.numChannels = 1;
    fast_cfg.tRrd = 1;
    HbmConfig slow_cfg = fast_cfg;
    slow_cfg.tRrd = 16;

    auto run = [](const HbmConfig &cfg) {
        Hbm hbm(cfg, nullptr);
        HbmPort port;
        Rng rng(3);
        for (Cycle c = 0; c < 20000; ++c) {
            for (int k = 0; k < 4; ++k) {
                const Addr addr = alignDown(rng.below(1ULL << 28), 32);
                if (!hbm.access(addr, 32, false, c, &port))
                    break;
            }
            hbm.tick();
            while (port.hasResponse())
                port.popResponse();
        }
        return hbm.totalBytes();
    };
    EXPECT_GT(run(fast_cfg), 1.5 * run(slow_cfg));
}

TEST(Hbm, PerBankRefreshDoesNotBlockOtherBanks)
{
    // A stream confined to one bank keeps flowing while other banks
    // refresh; only its own refresh slot interferes. Compare against a
    // config with refresh effectively disabled.
    HbmConfig no_refresh;
    no_refresh.numChannels = 1;
    no_refresh.tRefi = 1u << 30;
    HbmConfig with_refresh = no_refresh;
    with_refresh.tRefi = 3900;

    auto run = [](const HbmConfig &cfg) {
        Hbm hbm(cfg, nullptr);
        HbmPort port;
        Addr addr = 0;
        for (Cycle c = 0; c < 30000; ++c) {
            while (hbm.access(addr, 32, false, addr, &port))
                addr += 32;
            hbm.tick();
            while (port.hasResponse())
                port.popResponse();
        }
        return hbm.totalBytes();
    };
    const double clean = run(no_refresh);
    const double refreshed = run(with_refresh);
    // Staggered per-bank refresh perturbs throughput by a few percent,
    // not a stall storm. (It can even help slightly: refresh leaves the
    // bank precharged, making the next row activation cheaper.)
    EXPECT_GT(refreshed, 0.90 * clean);
    EXPECT_LT(refreshed, 1.10 * clean);
}

TEST(Hbm, LatencyAndOccupancyAccessorsConsistent)
{
    Fixture f;
    HbmPort port;
    for (int i = 0; i < 100; ++i)
        (void)f.hbm.access(static_cast<Addr>(i) * 4096, 64, false, i,
                           &port);
    f.drain();
    while (port.hasResponse())
        port.popResponse();
    // Little's law sanity: meanOccupancy ~= throughput x meanLatency.
    EXPECT_GT(f.hbm.meanLatency(),
              static_cast<double>(f.hbm.config().tCl));
    EXPECT_GT(f.hbm.meanOccupancy(), 0.0);
    const double tx = f.hbm.statsGroup().scalar("transactions").value();
    const double cycles = static_cast<double>(f.hbm.elapsed());
    const double expected_occ =
        tx / cycles * f.hbm.meanLatency();
    EXPECT_NEAR(f.hbm.meanOccupancy(), expected_occ,
                expected_occ * 0.75 + 1.0);
}

TEST(Hbm, WritesAndReadsShareBandwidthFairly)
{
    Fixture f;
    HbmPort rport;
    HbmPort wport;
    Addr raddr = 0;
    Addr waddr = 1ULL << 28;
    for (Cycle c = 0; c < 10000; ++c) {
        // Alternate issue order so admission does not favour one port.
        if (c % 2 == 0) {
            if (f.hbm.access(raddr, 256, false, c, &rport))
                raddr += 256;
            if (f.hbm.access(waddr, 256, true, c, &wport))
                waddr += 256;
        } else {
            if (f.hbm.access(waddr, 256, true, c, &wport))
                waddr += 256;
            if (f.hbm.access(raddr, 256, false, c, &rport))
                raddr += 256;
        }
        f.hbm.tick();
        while (rport.hasResponse())
            rport.popResponse();
        while (wport.hasResponse())
            wport.popResponse();
    }
    f.drain();
    const double reads = f.hbm.statsGroup().scalar("readBytes").value();
    const double writes = f.hbm.statsGroup().scalar("writeBytes").value();
    EXPECT_GT(reads, 0.0);
    EXPECT_NEAR(reads, writes, reads * 0.05);
}

/** What a drive of the device to idle is judged on. */
struct DriveTrace
{
    std::vector<std::pair<Cycle, std::uint64_t>> responses; ///< (cycle, tag)
    double occupancySum = 0.0;
    double refreshes = 0.0;
    double latencySum = 0.0;
    Cycle elapsed = 0;
    Cycle skipped = 0;
};

/**
 * Load the device with multi-burst requests spread over rows, banks and
 * channels, then run it until idle. With @p skip the driver jumps every
 * window nextEventCycle() declares pure, as the simulator's fast-forward
 * does; without it every cycle is ticked.
 */
DriveTrace
driveToIdle(const sim::FaultPlan &plan, bool skip)
{
    Hbm hbm(HbmConfig{}, nullptr);
    std::optional<sim::FaultInjector> injector;
    if (plan.any()) {
        injector.emplace(plan);
        hbm.setFaultInjector(&*injector);
    }
    HbmPort port;
    Rng rng(11);
    DriveTrace t;
    std::uint64_t tag = 0;
    // A burst of arrivals at cycle 0 and a second wave later, so the
    // skipped windows hold burst completions from several channels.
    for (const Cycle wave_at : {Cycle{0}, Cycle{900}}) {
        while (hbm.elapsed() < wave_at) {
            hbm.tick();
            while (port.hasResponse())
                t.responses.emplace_back(hbm.elapsed(), port.popResponse());
        }
        for (int i = 0; i < 48; ++i) {
            const Addr addr = alignDown(rng.below(1u << 24), 32);
            (void)hbm.access(addr, 32u * (1 + i % 12), false, tag++, &port);
        }
    }
    while (hbm.busy()) {
        if (skip) {
            const Cycle horizon = hbm.nextEventCycle();
            if (horizon > 1 && horizon != sim::Component::kNeverEvent) {
                hbm.skipCycles(horizon - 1);
                t.skipped += horizon - 1;
            }
        }
        hbm.tick();
        while (port.hasResponse())
            t.responses.emplace_back(hbm.elapsed(), port.popResponse());
    }
    const stats::Group &g = hbm.statsGroup();
    t.occupancySum = g.scalar("occupancySum").value();
    t.refreshes = g.scalar("refreshes").value();
    t.latencySum = g.scalar("latencySum").value();
    t.elapsed = hbm.elapsed();
    hbm.setFaultInjector(nullptr);
    return t;
}

void
expectSameDrive(const DriveTrace &naive, const DriveTrace &skipped)
{
    EXPECT_EQ(naive.responses, skipped.responses);
    EXPECT_EQ(naive.occupancySum, skipped.occupancySum);
    EXPECT_EQ(naive.refreshes, skipped.refreshes);
    EXPECT_EQ(naive.latencySum, skipped.latencySum);
    EXPECT_EQ(naive.elapsed, skipped.elapsed);
    EXPECT_EQ(naive.skipped, 0u);
    // A vacuous pass (nothing skipped) would prove nothing.
    EXPECT_GT(skipped.skipped, 0u);
    EXPECT_FALSE(naive.responses.empty());
}

TEST(HbmSkip, OccupancyIntegrationOverChannelFifosMatchesNaiveTicking)
{
    const sim::FaultPlan none;
    expectSameDrive(driveToIdle(none, false), driveToIdle(none, true));
}

TEST(HbmSkip, FaultDelayedRedeliveryIntegratesLikeNaiveTicking)
{
    // Every response is held back: each one is redelivered from the
    // finish heap after a long pure wait during which it still counts
    // as one in-flight transaction.
    sim::FaultPlan plan;
    plan.delayResponseProb = 1.0;
    plan.delayCycles = 700;
    const DriveTrace naive = driveToIdle(plan, false);
    const DriveTrace skipped = driveToIdle(plan, true);
    expectSameDrive(naive, skipped);
    // The redelivery wait really was integrated: occupancy outlasts the
    // last burst by the delay.
    EXPECT_GE(naive.elapsed, 700u);
}

} // namespace
} // namespace gds::mem
