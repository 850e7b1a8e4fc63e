/**
 * @file
 * The observability switch: one sink list says which recorders a
 * context runs, one directory says where they land.
 *
 *   SPECRT_OBS=trace,timeline,critpath,events  SPECRT_OBS_DIR=<dir>
 *   bench_*    --obs trace,timeline            --obs-dir <dir>
 *
 * Both spellings go through parseSinks(). Each sink writes one fixed
 * file name in the directory:
 *
 *   trace     trace.json     Chrome/Perfetto protocol trace; carries
 *                            the timeline's counter tracks and the
 *                            critical-path track when those are on
 *   timeline  timeline.csv   sampled metrics + directory heatmap
 *   critpath  critpath.json  stall attribution + slow transactions
 *   events    events.jsonl   run lifecycle, aborts, faults, jobs
 *
 * No directory means record only: the recorders fill in memory for
 * the code that reads them (abort reports, bench records,
 * report.json) and nothing is written. A context with a directory
 * writes its non-empty sinks when it dies -- so CI can re-run a
 * failing test under SPECRT_OBS and collect the files without the
 * test knowing about observability.
 *
 * The environment is applied to a context once, by the first
 * LoopExecutor::run() under it (applyEnv()); apply() sets a context
 * up explicitly. Campaign fan-out (fanOut() / merge()) switches each
 * job's sinks on like its parent's and folds the job shards back in
 * job-id order, so merged files do not depend on the worker count.
 */

#ifndef SPECRT_OBS_SINKS_HH
#define SPECRT_OBS_SINKS_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/event_log.hh"
#include "sim/critpath.hh"
#include "sim/probe.hh"
#include "sim/timeline.hh"
#include "sim/trace.hh"

namespace specrt
{

class SimContext;

namespace obs
{

/** The probe bits that name an exportable sink. */
constexpr uint32_t allSinks =
    probe::Trace | probe::Timeline | probe::Critpath | probe::Events;

/** One context's recorders (SimContext::sinks). */
struct Sinks
{
    trace::TraceBuffer trace;
    timeline::Timeline timeline;
    critpath::Recorder critpath;
    EventLog events;

    /** The probe bits of the recorders that are switched on. */
    uint32_t on() const;
};

/** Which sinks to record, and where to write them. */
struct Spec
{
    uint32_t sinks = 0; ///< allSinks bits
    std::string dir;    ///< "" = record only
};

/**
 * Parse a comma-separated sink list. "" and "0" select nothing;
 * whitespace around names is ignored and duplicates are harmless.
 * An unknown name is reported with warn() and skipped.
 */
uint32_t parseSinks(const std::string &list);

/** SPECRT_OBS / SPECRT_OBS_DIR as they are set now. */
Spec readEnvSpec();

/** readEnvSpec(), read once per process. */
const Spec &envSpec();

/**
 * Switch @p spec's sinks on in @p ctx; @p ctx writes them to
 * spec.dir when it dies. Replaces the environment for @p ctx.
 */
void apply(SimContext &ctx, const Spec &spec);

/** Apply envSpec() to the current context, once per context. */
void applyEnv();

/**
 * Write each sink of @p s that is on and holds data to
 * <dir>/<file>, creating @p dir if needed, with one line per file on
 * @p log. @return false when a write failed.
 */
bool exportTo(const Sinks &s, const std::string &dir, std::FILE *log);

/**
 * Switch on in campaign job @p job the sinks that fan out and are on
 * in @p parent (timeline, critpath, events; same interval and
 * capacity). The job no longer consults the environment.
 */
void fanOut(SimContext &job, const SimContext &parent);

/** Fold a job's @p shard into @p dst (call in job-id order). */
void merge(Sinks &dst, const Sinks &shard);

} // namespace obs
} // namespace specrt

#endif // SPECRT_OBS_SINKS_HH
