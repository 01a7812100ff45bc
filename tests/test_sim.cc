/**
 * @file
 * Unit tests for the simulation kernel: component hierarchy, tick ordering,
 * run loop termination, and the bounded/delay queues.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/component.hh"
#include "sim/queues.hh"
#include "sim/simulator.hh"

namespace gds::sim
{
namespace
{

// gds-lint: allow(checkpoint-hooks) test double lives only inside one
// run loop; the checkpoint tests use the real accelerator models
class CountingComponent : public Component
{
  public:
    CountingComponent(std::string n, Component *parent,
                      std::vector<std::string> *order)
        : Component(std::move(n), parent), tickOrder(order)
    {}

    void
    tick() override
    {
        ++ticks;
        if (tickOrder)
            tickOrder->push_back(name());
    }

    bool busy() const override { return pendingWork > 0; }

    // Test predicates mutate state the horizon cannot see, so every cycle
    // is an event. supportsFastForward() stays false: these runs must tick
    // naively even under fast-forwarding limits.
    Cycle nextEventCycle() const override { return 1; }

    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(ticks);
    }

    std::string
    debugState() const override
    {
        return "ticks " + std::to_string(ticks) + ", pending " +
               std::to_string(pendingWork);
    }

    int ticks = 0;
    int pendingWork = 0;

  private:
    std::vector<std::string> *tickOrder;
};

TEST(Component, StatsGroupMirrorsHierarchy)
{
    CountingComponent top("accel", nullptr, nullptr);
    CountingComponent child("pe", &top, nullptr);
    EXPECT_EQ(top.statsGroup().path(), "accel");
    EXPECT_EQ(child.statsGroup().path(), "accel.pe");
}

TEST(Simulator, TicksInRegistrationOrder)
{
    std::vector<std::string> order;
    CountingComponent a("a", nullptr, &order);
    CountingComponent b("b", nullptr, &order);
    Simulator sim;
    sim.add(&b);
    sim.add(&a);
    sim.step();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "b");
    EXPECT_EQ(order[1], "a");
    EXPECT_EQ(sim.cycle(), 1u);
}

TEST(Simulator, RunUntilPredicate)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    const RunReport report = sim.run([&] { return c.ticks >= 10; });
    EXPECT_EQ(report.outcome, RunOutcome::Completed);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.cycles, 10u);
    EXPECT_EQ(c.ticks, 10);
    EXPECT_NO_THROW(report.throwIfFailed());
}

TEST(Simulator, RunawayGuardReportsCycleLimit)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 100;
    // Keep "progressing" so the stall detector stays quiet; only the
    // budget can end this run.
    const RunReport report = sim.run(
        [&] {
            c.progressed();
            return false;
        },
        limits);
    EXPECT_EQ(report.outcome, RunOutcome::CycleLimit);
    EXPECT_FALSE(report.ok());
    EXPECT_EQ(report.cycles, 100u);
    EXPECT_FALSE(report.components.empty());
    EXPECT_THROW(report.throwIfFailed(), CycleLimitError);
}

TEST(Simulator, StallWithIdleComponentsIsDeadlock)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 1'000'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::Deadlock);
    EXPECT_LT(report.cycles, limits.maxCycles);
    ASSERT_FALSE(report.components.empty());
    EXPECT_EQ(report.components[0].path, "c");
    EXPECT_FALSE(report.components[0].busy);
    EXPECT_THROW(report.throwIfFailed(), DeadlockError);
}

TEST(Simulator, StallWithBusyComponentsIsLivelock)
{
    CountingComponent c("c", nullptr, nullptr);
    c.pendingWork = 1; // forever busy, never progressing
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 1'000'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::Livelock);
    ASSERT_FALSE(report.components.empty());
    EXPECT_TRUE(report.components[0].busy);
    EXPECT_THROW(report.throwIfFailed(), LivelockError);
}

TEST(Simulator, ProgressDefersStallDetection)
{
    CountingComponent c("c", nullptr, nullptr);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 100'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    // Progress happens until cycle 5000; the run must last well past the
    // first stall window before the watchdog finally fires.
    const RunReport report = sim.run(
        [&] {
            if (c.ticks < 5000)
                c.progressed();
            return false;
        },
        limits);
    EXPECT_EQ(report.outcome, RunOutcome::Deadlock);
    EXPECT_GT(report.cycles, 5000u);
    EXPECT_GE(report.lastProgressCycle, 4990u);
}

TEST(Simulator, AnyBusyReflectsComponents)
{
    CountingComponent a("a", nullptr, nullptr);
    CountingComponent b("b", nullptr, nullptr);
    Simulator sim;
    sim.add(&a);
    sim.add(&b);
    EXPECT_FALSE(sim.anyBusy());
    b.pendingWork = 1;
    EXPECT_TRUE(sim.anyBusy());
}

// --- Fast-forward engine -------------------------------------------------

/** Component whose waits are provable: events fire every `period` cycles
 *  of its local clock, everything in between is a pure wait. */
// gds-lint: allow(checkpoint-hooks) test double lives only inside one
// run loop; the checkpoint tests use the real accelerator models
class PeriodicComponent : public Component
{
  public:
    PeriodicComponent(std::string n, Cycle event_period)
        : Component(std::move(n), nullptr), period(event_period)
    {}

    void
    tick() override
    {
        ++realTicks;
        ++localCycle;
        if (localCycle % period == 0) {
            ++events;
            progressed(localCycle);
        }
    }

    bool busy() const override { return true; }

    Cycle
    nextEventCycle() const override
    {
        // Local clock is at `localCycle`; tick d runs with clock
        // localCycle + d, so the next multiple of `period` is event tick
        // period - localCycle % period.
        return period - localCycle % period;
    }

    void skipCycles(Cycle cycles) override { localCycle += cycles; }
    bool supportsFastForward() const override { return true; }
    std::string debugState() const override { return "periodic"; }
    std::uint64_t activityCounter() const override { return events; }

    Cycle period;
    Cycle localCycle = 0;
    std::uint64_t events = 0;
    std::uint64_t realTicks = 0;
};

TEST(FastForward, EligibilityRequiresUnanimousOptIn)
{
    PeriodicComponent fast("fast", 10);
    CountingComponent naive("naive", nullptr, nullptr);
    Simulator sim;
    sim.add(&fast);
    EXPECT_TRUE(sim.fastForwardEligible());
    sim.add(&naive);
    EXPECT_FALSE(sim.fastForwardEligible());
}

TEST(FastForward, EmptySimulatorIsNotEligible)
{
    Simulator sim;
    EXPECT_FALSE(sim.fastForwardEligible());
}

TEST(FastForward, SkipsToEventsWithExactCycleCount)
{
    PeriodicComponent c("c", 1000);
    Simulator sim;
    sim.add(&c);
    const RunReport report = sim.run([&] { return c.events >= 7; });
    EXPECT_EQ(report.outcome, RunOutcome::Completed);
    EXPECT_EQ(report.cycles, 7000u);
    EXPECT_EQ(sim.cycle(), 7000u);
    EXPECT_EQ(c.localCycle, 7000u);
    // The bulk of every window was skipped, not ticked.
    EXPECT_LT(c.realTicks, 100u);
}

TEST(FastForward, DisabledLimitsTickNaively)
{
    PeriodicComponent c("c", 1000);
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.fastForward = false;
    const RunReport report = sim.run([&] { return c.events >= 2; }, limits);
    EXPECT_EQ(report.cycles, 2000u);
    EXPECT_EQ(c.localCycle, 2000u);
}

TEST(FastForward, MixedFleetTicksEveryComponentEveryCycle)
{
    PeriodicComponent fast("fast", 100);
    CountingComponent naive("naive", nullptr, nullptr);
    Simulator sim;
    sim.add(&fast);
    sim.add(&naive);
    const RunReport report = sim.run([&] {
        naive.progressed();
        return fast.events >= 3;
    });
    EXPECT_EQ(report.cycles, 300u);
    EXPECT_EQ(naive.ticks, 300); // no tick was skipped
}

TEST(FastForward, WatchdogStillFiresAcrossSkippedWindows)
{
    // The first event is far beyond the stall window, so the detector
    // must trip inside a skippable stretch -- at the same cycle as a
    // naive run, with the same busy-based classification.
    RunLimits limits;
    limits.maxCycles = 1'000'000;
    limits.stallCycles = 256;
    limits.checkInterval = 64;
    const RunReport naive_report = [&] {
        PeriodicComponent n("n", 10'000);
        Simulator ns;
        ns.add(&n);
        RunLimits nl = limits;
        nl.fastForward = false;
        return ns.run([] { return false; }, nl);
    }();
    PeriodicComponent c("c", 10'000);
    Simulator sim;
    sim.add(&c);
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::Livelock);
    EXPECT_EQ(report.outcome, naive_report.outcome);
    EXPECT_EQ(report.cycles, naive_report.cycles);
}

TEST(FastForward, CycleLimitHonoredExactly)
{
    PeriodicComponent c("c", 1'000'000); // next event far past the budget
    Simulator sim;
    sim.add(&c);
    RunLimits limits;
    limits.maxCycles = 1234;
    const RunReport report = sim.run([] { return false; }, limits);
    EXPECT_EQ(report.outcome, RunOutcome::CycleLimit);
    EXPECT_EQ(report.cycles, 1234u);
    EXPECT_EQ(c.localCycle, 1234u);
}

TEST(BoundedQueue, FifoOrderAndBackpressure)
{
    BoundedQueue<int> q(3);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.canPush());
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_FALSE(q.canPush());
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_TRUE(q.canPush());
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueueDeath, OverflowPanics)
{
    BoundedQueue<int> q(1);
    q.push(1);
    EXPECT_DEATH(q.push(2), "full queue");
}

TEST(BoundedQueueDeath, UnderflowPanics)
{
    BoundedQueue<int> q(1);
    EXPECT_DEATH(q.pop(), "empty queue");
}

TEST(DelayQueue, ElementsMatureAfterLatency)
{
    DelayQueue<int> q(4, 3);
    q.push(42);
    EXPECT_FALSE(q.ready());
    q.tick();
    EXPECT_FALSE(q.ready());
    q.tick();
    EXPECT_FALSE(q.ready());
    q.tick();
    EXPECT_TRUE(q.ready());
    EXPECT_EQ(q.pop(), 42);
}

TEST(DelayQueue, ZeroLatencyIsImmediatelyReady)
{
    DelayQueue<int> q(4, 0);
    q.push(7);
    EXPECT_TRUE(q.ready());
    EXPECT_EQ(q.pop(), 7);
}

TEST(DelayQueue, PreservesOrderWithMixedMaturity)
{
    DelayQueue<int> q(8, 2);
    q.push(1);
    q.tick();
    q.push(2);
    q.tick();
    EXPECT_TRUE(q.ready());
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.ready()); // 2 needs one more cycle
    q.tick();
    EXPECT_TRUE(q.ready());
    EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, RingWrapsAroundManyTimes)
{
    // Capacity 3 is not a power of two: the wrap must not rely on masks.
    BoundedQueue<int> q(3);
    std::deque<int> model;
    int next = 0;
    for (int round = 0; round < 50; ++round) {
        // Alternate fill-to-full and drain-to-empty with partial steps so
        // head lands on every slot.
        while (q.canPush() && static_cast<int>(model.size()) < 1 + round % 3) {
            q.push(next);
            model.push_back(next++);
        }
        ASSERT_EQ(q.size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i)
            EXPECT_EQ(q[i], model[i]);
        EXPECT_EQ(q.front(), model.front());
        EXPECT_EQ(q.pop(), model.front());
        model.pop_front();
    }
    while (!model.empty()) {
        EXPECT_EQ(q.pop(), model.front());
        model.pop_front();
    }
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(q.canPush());
}

TEST(BoundedQueue, FullAndEmptyAcrossTheWrap)
{
    BoundedQueue<int> q(4);
    for (int i = 0; i < 3; ++i)
        q.push(i);
    q.pop();
    q.pop(); // head now at slot 2
    for (int i = 3; i < 6; ++i)
        q.push(i); // tail wraps to slots 0 and 1
    EXPECT_FALSE(q.canPush());
    EXPECT_EQ(q.size(), 4u);
    for (int want = 2; want < 6; ++want)
        EXPECT_EQ(q.pop(), want);
    EXPECT_TRUE(q.empty());
}

TEST(BoundedQueue, RemoveAtKeepsFifoOrderAcrossTheWrap)
{
    BoundedQueue<int> q(4);
    q.push(0);
    q.push(1);
    q.pop();
    q.pop();
    for (int i = 10; i < 14; ++i)
        q.push(i); // occupies slots 2, 3, 0, 1
    EXPECT_EQ(q.removeAt(2), 12);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q[0], 10);
    EXPECT_EQ(q[1], 11);
    EXPECT_EQ(q[2], 13);
    EXPECT_EQ(q.removeAt(0), 10);
    EXPECT_EQ(q.pop(), 11);
    EXPECT_EQ(q.pop(), 13);
}

/** The byte image std::deque-backed queues used to write: the element
 *  count, then each element's raw bytes oldest first. */
template <typename T>
std::vector<std::uint8_t>
dequeEncoding(const std::deque<T> &elements)
{
    Serializer s;
    s.writeU64(elements.size());
    for (const T &e : elements)
        s.writePod(e);
    return s.bytes();
}

struct Flit
{
    std::uint32_t dst;
    float value;
};

TEST(BoundedQueue, SaveStateMatchesTheDequeEncodingAfterWrapping)
{
    BoundedQueue<Flit> q(3);
    std::deque<Flit> model;
    for (std::uint32_t i = 0; i < 7; ++i) {
        if (!q.canPush()) {
            q.pop();
            model.pop_front();
        }
        q.push(Flit{i, 0.5f * static_cast<float>(i)});
        model.push_back(Flit{i, 0.5f * static_cast<float>(i)});
    }
    Serializer s;
    q.saveState(s);
    EXPECT_EQ(s.bytes(), dequeEncoding(model));

    BoundedQueue<Flit> restored(3);
    Deserializer d(s.bytes());
    restored.restoreState(d);
    d.expectEnd();
    ASSERT_EQ(restored.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i)
        EXPECT_EQ(restored[i].dst, model[i].dst);
}

TEST(BoundedQueue, RestoreRefusesMoreElementsThanCapacity)
{
    BoundedQueue<int> big(4);
    for (int i = 0; i < 4; ++i)
        big.push(i);
    Serializer s;
    big.saveState(s);
    BoundedQueue<int> small(2);
    Deserializer d(s.bytes());
    EXPECT_THROW(small.restoreState(d), CheckpointError);
}

/** DelayQueue element with tail padding inside its entry (12 B value
 *  after an 8 B stamp: 4 B of padding). */
struct List
{
    std::uint32_t start;
    std::uint16_t count;
    std::uint16_t zero;
    std::uint32_t group;
};

TEST(DelayQueue, SaveStateMatchesTheDequeEncodingWithZeroPadding)
{
    DelayQueue<List> q(2, 3);
    q.push(List{1, 2, 0, 3});
    q.tick();
    q.push(List{4, 5, 0, 6});
    for (int i = 0; i < 3; ++i)
        q.tick();
    EXPECT_EQ(q.pop().start, 1u); // head now at slot 1
    q.push(List{7, 8, 0, 9});     // wraps to slot 0

    struct Entry
    {
        Cycle readyAt;
        List value;
    };
    static_assert(sizeof(Entry) == 24, "test assumes 4 B tail padding");
    std::deque<Entry> model(2);
    std::memset(static_cast<void *>(&model[0]), 0, sizeof(Entry));
    std::memset(static_cast<void *>(&model[1]), 0, sizeof(Entry));
    model[0].readyAt = 4;
    model[0].value = List{4, 5, 0, 6};
    model[1].readyAt = 7;
    model[1].value = List{7, 8, 0, 9};
    Serializer want;
    want.writeU64(4); // local clock
    for (const std::uint8_t b : dequeEncoding(model))
        want.writeU8(b);

    Serializer got;
    q.saveState(got);
    EXPECT_EQ(got.bytes(), want.bytes());

    DelayQueue<List> restored(2, 3);
    Deserializer d(got.bytes());
    restored.restoreState(d);
    d.expectEnd();
    EXPECT_EQ(restored.cyclesUntilReady(), 0u);
    EXPECT_EQ(restored.pop().group, 6u);
    EXPECT_EQ(restored.cyclesUntilReady(), 3u);
}

TEST(DelayQueueDeath, PopBeforeMaturityPanics)
{
    DelayQueue<int> q(4, 5);
    q.push(1);
    EXPECT_DEATH(q.pop(), "non-ready");
}

TEST(IndexSet, WalksMembersInAscendingOrderAcrossWords)
{
    IndexSet set;
    set.resize(130);
    EXPECT_FALSE(set.any());
    for (const unsigned i : {129u, 0u, 64u, 63u, 7u})
        set.insert(i);
    set.set(7, false);
    set.set(100, true);
    std::vector<unsigned> seen;
    set.forEach([&](unsigned i) {
        seen.push_back(i);
        return true;
    });
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 63, 64, 100, 129}));

    // The walk may erase the member it was given, and stops early on
    // false.
    seen.clear();
    set.forEach([&](unsigned i) {
        seen.push_back(i);
        set.erase(i);
        return i < 64;
    });
    EXPECT_EQ(seen, (std::vector<unsigned>{0, 63, 64}));
    set.clear();
    EXPECT_FALSE(set.any());
}

} // namespace
} // namespace gds::sim
