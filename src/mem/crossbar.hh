/**
 * @file
 * Radix-N crossbar switch model (the 128-radix switch between the
 * Processor's SIMT lanes and the Updating Elements, Sec. 4.2.1).
 *
 * Each output port accepts at most one flit per cycle; a second flit routed
 * to the same output in the same cycle is refused and the sending lane
 * stalls (this contention is what degrades high-throughput algorithms when
 * the UE count shrinks, Fig. 14e). The owner calls beginCycle() once per
 * cycle to reset the per-output grant state.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/debug.hh"
#include "sim/checkpoint.hh"
#include "sim/component.hh"
#include "sim/fault.hh"

namespace gds::mem
{

/** Switch fabric bookkeeping; payload delivery is the owner's business. */
class Crossbar : public sim::Component
{
  public:
    Crossbar(unsigned radix, sim::Component *parent)
        : sim::Component("crossbar", parent),
          ports(radix),
          granted((radix + 63) / 64, 0),
          statFlits(&statsGroup(), "flits", "flits routed"),
          statConflicts(&statsGroup(), "conflicts",
                        "output-port conflicts (flit refused)"),
          statFaultStalls(&statsGroup(), "faultStalls",
                          "grants refused by fault injection")
    {
        gds_assert(radix > 0, "crossbar radix must be positive");
    }

    /** Attach (or detach, with nullptr) a fault injector that can refuse
     *  output-port grants, modelling a glitching switch. */
    void setFaultInjector(sim::FaultInjector *injector) { fault = injector; }

    unsigned radix() const { return ports; }

    /** Reset per-cycle grant state. Call once at the start of each cycle. */
    void
    beginCycle()
    {
        std::fill(granted.begin(), granted.end(), 0);
    }

    /**
     * Try to route one flit to @p output this cycle: a word/bit test of
     * the grant mask, inlined into the routing loop. An attached fault
     * injector is consulted (out of line) only for a free port.
     * @return true if the output port was free (the flit is granted).
     */
    bool
    tryRoute(unsigned output)
    {
        gds_assert(output < ports, "output port %u out of range", output);
        std::uint64_t &word = granted[output / 64];
        const std::uint64_t bit = std::uint64_t{1} << (output % 64);
        if (word & bit) {
            ++statConflicts;
            return false;
        }
        if (fault && faultRefusesGrant())
            return false;
        word |= bit;
        ++statFlits;
        return true;
    }

    /** Flits routed so far (energy model input). */
    double flitsRouted() const { return statFlits.value(); }

    /** Output-port conflicts so far (sampler probe). */
    double conflicts() const { return statConflicts.value(); }

    /** Activity = flits routed (counter-track unit). */
    std::uint64_t
    activityCounter() const override
    {
        return static_cast<std::uint64_t>(statFlits.value());
    }

    /** The crossbar holds no state across cycles: grants are per-cycle
     *  and payload delivery is the owner's business. */
    bool busy() const override { return false; }

    /** Stateless across cycles: never self-schedules an event. Routing
     *  demand is the owner's, and reflected in the owner's horizon. */
    Cycle nextEventCycle() const override { return kNeverEvent; }

    bool supportsFastForward() const override { return true; }

    /** Checkpoint: base progress/stats plus the grant mask. Checkpoints
     *  land between cycles, where the mask is the (already consumed)
     *  previous cycle's grants — serialized anyway so the state is
     *  byte-for-byte identical to the uninterrupted run's. One byte per
     *  output port, after the port count. */
    void
    saveState(sim::Serializer &s) const override
    {
        sim::Component::saveState(s);
        s.writeU64(ports);
        for (unsigned o = 0; o < ports; ++o)
            s.writeBool((granted[o / 64] >> (o % 64)) & 1);
    }

    void
    restoreState(sim::Deserializer &d) override
    {
        sim::Component::restoreState(d);
        const std::uint64_t n = d.readU64();
        gds_require(n == ports, CheckpointError,
                    "checkpoint crossbar has %llu outputs, this config has "
                    "%u", static_cast<unsigned long long>(n), ports);
        std::fill(granted.begin(), granted.end(), 0);
        for (unsigned o = 0; o < ports; ++o) {
            if (d.readBool())
                granted[o / 64] |= std::uint64_t{1} << (o % 64);
        }
    }

    std::string
    debugState() const override
    {
        unsigned granted_now = 0;
        for (const std::uint64_t w : granted)
            granted_now += static_cast<unsigned>(__builtin_popcountll(w));
        return "granted " + std::to_string(granted_now) + "/" +
               std::to_string(ports) + " outputs this cycle, " +
               std::to_string(static_cast<std::uint64_t>(
                   statConflicts.value())) +
               " conflicts total";
    }

  private:
    /** Ask the fault injector whether to refuse a grant; counts and
     *  traces a refusal. Cold: only fault campaigns attach an injector. */
    [[gnu::cold]] bool faultRefusesGrant();

    unsigned ports; ///< radix; restore checks the checkpoint's count
    /** Per-cycle grant mask, one bit per output port. */
    std::vector<std::uint64_t> granted;
    // gds-ckpt: skip(fault) non-owning injector hook, re-attached by the
    // harness after restore (fault campaigns are not checkpointable)
    sim::FaultInjector *fault = nullptr;
    stats::Scalar statFlits;
    stats::Scalar statConflicts;
    stats::Scalar statFaultStalls;
};

} // namespace gds::mem
