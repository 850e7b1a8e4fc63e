/**
 * @file
 * The probe word: one bit per observability recorder of the current
 * SimContext, mirrored in a thread-local so every hot-path guard
 * (trace::enabled(), timeline::enabled(), critpath::enabled(),
 * stall::active(), obs::enabled()) is one bit test of one word.
 *
 * The word is recomputed by refresh() -- once per ScopedSimContext
 * switch, and by each recorder's enable()/disable() -- so it always
 * describes the context that is current on this host thread. The
 * same bits name the sinks of the SPECRT_OBS switch (obs/sinks.hh).
 */

#ifndef SPECRT_SIM_PROBE_HH
#define SPECRT_SIM_PROBE_HH

#include <cstdint>

namespace specrt::probe
{

constexpr uint32_t Trace = 1u << 0;    ///< protocol trace ring
constexpr uint32_t Timeline = 1u << 1; ///< metric timeline
constexpr uint32_t Critpath = 1u << 2; ///< critical-path recorder
constexpr uint32_t Events = 1u << 3;   ///< structured event log

/** The current context's probe bits (read through on()). */
extern constinit thread_local uint32_t word;

inline bool
on(uint32_t bit)
{
    return (word & bit) != 0;
}

/** Recompute word from SimContext::current(). */
void refresh();

} // namespace specrt::probe

#endif // SPECRT_SIM_PROBE_HH
