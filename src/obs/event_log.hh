/**
 * @file
 * Structured event log: the campaign flight recorder's first stage.
 *
 * The trace ring (sim/trace.hh), the timeline (sim/timeline.hh), and
 * the stall profiler (sim/stall.hh) each answer one question in
 * depth; none answers "what happened to this run, in order?". The
 * event log records exactly that, as a bounded ring of rendered
 * JSONL lines -- one JSON object per line, fields in a fixed order,
 * so two runs of the same (config, seed) produce byte-identical
 * logs:
 *
 *   {"ev":"run_begin","t":0,"mode":"HW","iters":64,"procs":8}
 *   {"ev":"checkpoint","t":118,"what":"backup of shared arrays"}
 *   {"ev":"abort","t":302,"elem":"0x1a8","node":2,"iter":7,
 *    "reason":"...","rule":"..."}
 *   {"ev":"run_end","t":9301,"mode":"HW","passed":false,
 *    "infra_failed":false,"total_ticks":9301,"iters":64}
 *
 * Event kinds: run lifecycle (run_begin / run_end), campaign job
 * lifecycle (job_begin / job_end), speculation aborts with their
 * PR-3 attribution (abort, sw_abort), network fault injections
 * (fault), degradation transitions (degrade), and checkpoint /
 * commit boundaries (checkpoint, commit).
 *
 * Like the trace and the timeline, the log is instance-scoped: the
 * current SimContext owns one, campaign jobs each fill their own,
 * and merge() folds job logs into the process-level one in job-id
 * order, so the merged JSONL is byte-identical across `--jobs N`.
 * The hot-path guard follows the trace.hh discipline -- one bit of
 * the probe word (sim/probe.hh) makes the disabled case one
 * predictable branch, and every typed emitter below is free when the
 * log is off. The run-lifecycle emitters also write the matching
 * trace record, so the executor emits each lifecycle mark once.
 *
 * File sink: `events` of the observability switch (obs/sinks.hh),
 * written as events.jsonl.
 */

#ifndef SPECRT_OBS_EVENT_LOG_HH
#define SPECRT_OBS_EVENT_LOG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/probe.hh"
#include "sim/types.hh"

namespace specrt
{
namespace obs
{

/** Bounded ring of rendered JSONL event lines (newest kept). */
class EventLog
{
  public:
    /** Ring capacity when the caller does not pick one. */
    static constexpr size_t defaultCapacity = 8192;

    /**
     * Start collecting; idempotent, keeps accumulated lines. A
     * capacity change takes effect for subsequent emits (existing
     * lines above the new capacity are shed oldest-first).
     */
    void enable(size_t capacity = defaultCapacity);
    /** Stop collecting; accumulated lines stay exportable. */
    void disable();
    bool isOn() const { return on; }

    /** Drop every line (capacity and on/off state kept). */
    void clear();

    size_t capacity() const { return cap; }
    /** Lines currently retained (<= capacity). */
    size_t size() const { return ring.size(); }
    /** Lines ever emitted (including ones the ring shed). */
    uint64_t recorded() const { return total; }
    /** Lines shed by the ring (recorded - size). */
    uint64_t dropped() const { return total - ring.size(); }

    /** Retained line @p i, oldest first. */
    const std::string &at(size_t i) const;

    /**
     * Append one rendered line (no trailing newline). Appends
     * regardless of isOn(): enablement is enforced by the emitters'
     * obs::enabled() guard, and merge paths must work on captured
     * shards whatever their flag says.
     */
    void emit(std::string line);

    /**
     * Append @p shard's retained lines, oldest first. Called in
     * job-id order by the campaign merge path, which makes the
     * merged log independent of --jobs.
     */
    void merge(const EventLog &shard);

    /** Every retained line, oldest first, newline-terminated. */
    std::string jsonl() const;

  private:
    bool on = false;
    size_t cap = defaultCapacity;
    /** Overwrite cursor once the ring is full (slot of the oldest). */
    size_t head = 0;
    uint64_t total = 0;
    std::vector<std::string> ring;
};

/** The current context's event log (per-instance, like the trace). */
EventLog &log();

/** Cheap hot-path guard; true when the current log collects. */
inline bool enabled() { return probe::on(probe::Events); }

// --- JSON and file helpers (every exporter uses these) ----------------

/** Backslash-escape @p s for embedding in a JSON string. */
std::string jsonEscape(const std::string &s);

/** Shortest round-trip decimal of @p v ("0" for inf/nan). */
std::string jsonNumber(double v);

/**
 * Write @p bytes to @p path: write, close, and return true only if
 * every byte reached the file. With @p viaTemp the bytes go to
 * "<path>.tmp", which is renamed over @p path only after a clean
 * close, so a reader tailing @p path never sees a torn file and a
 * failed write leaves the old contents in place.
 */
bool writeFile(const std::string &path, const std::string &bytes,
               bool viaTemp = false);

// --- typed emitters ---------------------------------------------------
// One branch when disabled; instrumentation sites call these
// unconditionally. Field order within a line is fixed. String
// arguments of the run-lifecycle marks (runBegin, runEnd,
// checkpointMark, swAbort, commitMark) must have static lifetime:
// they also label the trace record.

/**
 * A LoopExecutor run started; opens a fresh trace loop track, so
 * consecutive runs (degradation retries, sweep epochs) stay apart in
 * the exported trace.
 */
void runBegin(Tick t, const char *mode, uint64_t iters, int procs);

/** A LoopExecutor run finished (or infra-aborted). */
void runEnd(Tick t, const char *mode, bool passed, bool infra_failed,
            uint64_t total_ticks, uint64_t iters);

/** Campaign job @p job began under context seed @p seed. */
void jobBegin(uint64_t job, uint64_t seed);

/** Campaign job @p job finished; @p error is "" when @p ok. */
void jobEnd(uint64_t job, bool ok, const std::string &error);

/** HW speculation abort with its attribution (spec/spec_unit.cc). */
void abortEvent(Tick t, Addr elem, NodeId node, IterNum iter,
                const char *reason, const char *rule);

/** The software LRPD test failed (core/loop_exec.cc). */
void swAbort(Tick t, const char *reason);

/**
 * The network's fault plan acted on a message: @p kind is "drop",
 * "dup", "jitter", or "lost" (retransmission budget exhausted).
 */
void faultInject(Tick t, const char *kind, const char *msg_type,
                 int src, int dst);

/** The degradation ladder stepped down a tier. */
void degrade(const char *from, const char *to,
             const std::string &reason);

/** A checkpoint boundary (backup / restore of shared arrays). */
void checkpointMark(Tick t, const char *what);

/** Speculative state committed. */
void commitMark(Tick t);

} // namespace obs
} // namespace specrt

#endif // SPECRT_OBS_EVENT_LOG_HH
