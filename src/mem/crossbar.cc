#include "mem/crossbar.hh"

#include "obs/trace.hh"

namespace gds::mem
{

bool
Crossbar::faultRefusesGrant()
{
    if (!fault->stallOutput())
        return false;
    ++statFaultStalls;
    if (obs::Tracer *t = obs::activeTracer()) {
        t->instant(t->track(tracePath()), "fault:stall",
                   debug::traceCycle());
    }
    return true;
}

} // namespace gds::mem
