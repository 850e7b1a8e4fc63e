/**
 * @file
 * Exporter for the sim-time trace ring (sim/trace.hh): Chrome/
 * Perfetto trace-event JSON. One process ("track") per node,
 * iterations as B/E slices, messages as dur-1 slices tied together
 * by s/f flow arrows, protocol state changes as instant events,
 * aborts as global instants carrying the abort cause. Load the file
 * in https://ui.perfetto.dev or chrome://tracing.
 *
 * The export optionally folds in a metric timeline
 * (sim/timeline.hh): sampled series become Perfetto counter tracks
 * ("ph": "C") on a synthetic "metrics" process sharing the trace's
 * tick timebase, so counters and protocol events line up in one UI.
 *
 * Timestamps are raw sim ticks; the viewer renders them as
 * microseconds, which only changes the axis label.
 */

#ifndef SPECRT_SIM_TRACE_EXPORT_HH
#define SPECRT_SIM_TRACE_EXPORT_HH

#include <string>

namespace specrt
{

namespace critpath
{
class Recorder;
}

namespace timeline
{
class Timeline;
}

namespace trace
{

class TraceBuffer;

/**
 * The whole ring as a Chrome trace-event JSON document; @p tl (may
 * be null) adds its series as counter tracks on the same timebase,
 * and @p cp (may be null) its critical-path async track.
 */
std::string chromeTraceJson(const TraceBuffer &buf,
                            const timeline::Timeline *tl = nullptr,
                            const critpath::Recorder *cp = nullptr);

} // namespace trace
} // namespace specrt

#endif // SPECRT_SIM_TRACE_EXPORT_HH
