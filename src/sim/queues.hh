/**
 * @file
 * Inter-stage communication primitives.
 *
 * BoundedQueue models a hardware FIFO with a fixed capacity; a full queue
 * exerts backpressure (the producer must check canPush()). DelayQueue adds
 * a fixed pipeline latency: an element pushed at cycle T becomes visible to
 * the consumer at cycle T + latency, modelling SRAM/eDRAM access pipelines.
 *
 * Both are rings over storage sized once at construction, so the
 * per-cycle push/pop path never allocates. Checkpoints carry the size and
 * then the elements oldest first; where a slot sits in the ring is not
 * state and is not serialized.
 *
 * IndexSet is the ready set beside such queues: one bit per queue owner
 * (stream, UE), walked in ascending order, so a stage visits only the
 * owners that have work. It is derived state, rebuilt on restore.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace gds::sim
{

/** Fixed-capacity FIFO with backpressure. */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t queue_capacity) : slots(queue_capacity)
    {
        gds_assert(!slots.empty(), "queue capacity must be positive");
    }

    bool canPush() const { return count < slots.size(); }
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }
    std::size_t capacity() const { return slots.size(); }

    void
    push(T value)
    {
        gds_assert(canPush(), "push into full queue (capacity %zu)",
                   slots.size());
        slots[wrap(head + count)] = std::move(value);
        ++count;
    }

    const T &
    front() const
    {
        gds_assert(count != 0, "front of empty queue");
        return slots[head];
    }

    T &
    front()
    {
        gds_assert(count != 0, "front of empty queue");
        return slots[head];
    }

    /** The @p i-th oldest element (0 = front). */
    const T &
    operator[](std::size_t i) const
    {
        gds_assert(i < count, "queue index %zu out of range (size %zu)", i,
                   count);
        return slots[wrap(head + i)];
    }

    T
    pop()
    {
        gds_assert(count != 0, "pop from empty queue");
        T value = std::move(slots[head]);
        head = wrap(head + 1);
        --count;
        return value;
    }

    /**
     * Remove and return the @p i-th oldest element. The elements ahead of
     * it shift one slot toward the tail, so FIFO order is kept (FR-FCFS
     * picks inside a short lookahead window, so @p i is small).
     */
    T
    removeAt(std::size_t i)
    {
        gds_assert(i < count, "queue index %zu out of range (size %zu)", i,
                   count);
        T value = std::move(slots[wrap(head + i)]);
        for (std::size_t j = i; j > 0; --j)
            slots[wrap(head + j)] = std::move(slots[wrap(head + j - 1)]);
        head = wrap(head + 1);
        --count;
        return value;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Checkpoint hook; capacity is configuration, only contents move. */
    template <typename SER>
    void
    saveState(SER &s) const
    {
        s.writeU64(count);
        for (std::size_t i = 0; i < count; ++i)
            s.writePod(slots[wrap(head + i)]);
    }

    template <typename DES>
    void
    restoreState(DES &d)
    {
        const std::uint64_t n = d.readU64();
        gds_require(n <= slots.size(), CheckpointError,
                    "checkpoint queue holds %llu elements, capacity is %zu",
                    static_cast<unsigned long long>(n), slots.size());
        head = 0;
        count = static_cast<std::size_t>(n);
        for (std::size_t i = 0; i < count; ++i)
            slots[i] = d.template readPod<T>();
    }

  private:
    /** Index arithmetic stays below 2 x capacity, so one compare wraps. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= slots.size() ? i - slots.size() : i;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

/**
 * FIFO whose elements become visible only after a fixed latency.
 * The owner must call tick() once per cycle.
 */
template <typename T>
class DelayQueue
{
  public:
    DelayQueue(std::size_t queue_capacity, Cycle delay_cycles)
        : entries(queue_capacity), delay(delay_cycles)
    {}

    void tick() { ++now; }

    /**
     * Advance the local clock by @p cycles at once, in place of that many
     * tick() calls. The caller must have established (via cyclesUntilReady)
     * that no element matures strictly inside the skipped window.
     */
    void
    advance(Cycle cycles)
    {
        gds_assert(entries.empty() ||
                       entries.front().readyAt >= now + cycles,
                   "advance() across a matured delay-queue element");
        now += cycles;
    }

    /**
     * Ticks until the head element matures: 0 when ready() already holds,
     * the distance in tick() calls otherwise, or kNever when empty.
     */
    static constexpr Cycle kNever = ~Cycle{0};
    Cycle
    cyclesUntilReady() const
    {
        if (entries.empty())
            return kNever;
        return entries.front().readyAt <= now ? 0
                                              : entries.front().readyAt - now;
    }

    bool canPush() const { return entries.canPush(); }
    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }

    /** True when the head element has matured and can be popped. */
    bool
    ready() const
    {
        return !entries.empty() && entries.front().readyAt <= now;
    }

    void
    push(T value)
    {
        gds_assert(canPush(), "push into full delay queue (capacity %zu)",
                   entries.capacity());
        entries.push(Entry{now + delay, std::move(value)});
    }

    const T &
    front() const
    {
        gds_assert(ready(), "front of non-ready delay queue");
        return entries.front().value;
    }

    T
    pop()
    {
        gds_assert(ready(), "pop from non-ready delay queue");
        return entries.pop().value;
    }

    /**
     * Checkpoint hook: local clock plus in-flight entries (their readyAt
     * stamps are relative to that clock, so both travel). Each entry is
     * written as its in-memory image with the tail padding spelled out
     * as zero bytes, so equal queues always serialize to equal bytes.
     */
    template <typename SER>
    void
    saveState(SER &s) const
    {
        s.writeU64(now);
        s.writeU64(entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
            s.writeU64(entries[i].readyAt);
            s.writePod(entries[i].value);
            for (std::size_t b = 0; b < kTailPadding; ++b)
                s.writeU8(0);
        }
    }

    template <typename DES>
    void
    restoreState(DES &d)
    {
        now = d.readU64();
        const std::uint64_t n = d.readU64();
        gds_require(n <= entries.capacity(), CheckpointError,
                    "checkpoint delay queue holds %llu elements, "
                    "capacity is %zu",
                    static_cast<unsigned long long>(n), entries.capacity());
        entries.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            const Cycle ready_at = d.readU64();
            entries.push(Entry{ready_at, d.template readPod<T>()});
            for (std::size_t b = 0; b < kTailPadding; ++b)
                d.readU8();
        }
    }

  private:
    struct Entry
    {
        Cycle readyAt;
        T value;
    };
    static_assert(offsetof(Entry, value) == sizeof(Cycle),
                  "DelayQueue element must not need over-alignment");
    static constexpr std::size_t kTailPadding =
        sizeof(Entry) - sizeof(Cycle) - sizeof(T);

    BoundedQueue<Entry> entries;
    Cycle delay;
    Cycle now = 0;
};

/** A set of indices below a fixed bound, walked in ascending order. */
class IndexSet
{
  public:
    void resize(unsigned n) { words.assign((n + 63) / 64, 0); }
    void clear() { std::fill(words.begin(), words.end(), 0); }

    void insert(unsigned i) { words[i / 64] |= bit(i); }
    void erase(unsigned i) { words[i / 64] &= ~bit(i); }

    void
    set(unsigned i, bool member)
    {
        if (member)
            insert(i);
        else
            erase(i);
    }

    bool
    any() const
    {
        for (const std::uint64_t w : words)
            if (w != 0)
                return true;
        return false;
    }

    /**
     * Call @p f(i) for each member in ascending order until it returns
     * false. Each 64-index word is read once up front, so @p f may update
     * the membership of the index it was given.
     */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t w = 0; w < words.size(); ++w) {
            for (std::uint64_t bits = words[w]; bits != 0;
                 bits &= bits - 1) {
                const auto i = static_cast<unsigned>(
                    w * 64 + static_cast<unsigned>(__builtin_ctzll(bits)));
                if (!f(i))
                    return;
            }
        }
    }

  private:
    static std::uint64_t
    bit(unsigned i)
    {
        return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words;
};

} // namespace gds::sim
