/**
 * @file
 * Time-series metrics engine: periodic stat sampling, per-directory
 * hot-spot heatmaps, and the data behind Perfetto counter tracks.
 *
 * End-of-run StatGroup::snapshot() dumps say how much each protocol
 * phase cost but not *when* the cost accrued or *which* home node was
 * hot. The paper's evaluation (Fig. 12 overhead breakdown, Fig. 13
 * early-abort timing, the claim that speculative transactions
 * serialize at the home directory) is all about exactly those two
 * axes, so the Timeline records both:
 *
 *  - a column-oriented time series: a RunSampler's clock hook on the
 *    machine's EventQueue fires every N ticks and captures *deltas*
 *    of registered StatGroups plus live gauges
 *    (network in-flight messages, per-directory queue depth and
 *    occupancy, outstanding speculative iterations) as one row;
 *
 *  - an access-conflict heatmap keyed by home node x element bucket,
 *    fed from the directory controller (accesses, line-busy queueing)
 *    and from abort attribution (conflicts).
 *
 * Like the protocol trace, the Timeline is instance-scoped: the
 * current SimContext owns one, campaign jobs each fill their own, and
 * merge() folds job timelines into the process-level one in job-id
 * order so `--jobs N` output is byte-identical to `--jobs 1`.
 *
 * Exports: csv() (the timeline sink, obs/sinks.hh), Perfetto
 * counter tracks merged into the trace_export JSON on the same
 * timebase, and hotSummary() appended to the abort-attribution
 * report.
 *
 * The hot-path feeds (dirAccess() etc.) follow the trace.hh pattern:
 * one bit of the probe word (sim/probe.hh) makes the disabled case
 * one predictable branch.
 */

#ifndef SPECRT_SIM_TIMELINE_HH
#define SPECRT_SIM_TIMELINE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace specrt
{
namespace timeline
{

/** Cheap hot-path guard; true when the current timeline collects. */
inline bool enabled() { return probe::on(probe::Timeline); }

/** One heatmap cell: contention counters for (home, bucket). */
struct HeatCell
{
    uint64_t accesses = 0;   ///< directory requests processed
    uint64_t queued = 0;     ///< requests that waited behind a txn
    uint64_t conflicts = 0;  ///< abort-attributed conflicts
};

class Timeline
{
  public:
    /** Sampling period when the caller does not pick one. */
    static constexpr Tick defaultIntervalTicks = 5000;

    /** Elements within one bucket share a heatmap cell (64 words). */
    static constexpr int bucketShift = 6;

    /** One named counter column of the sample matrix. */
    struct Series
    {
        std::string name;
        std::vector<double> values;  ///< one entry per sample row
    };

    /** Start collecting; idempotent, keeps accumulated data. */
    void enable(Tick interval = defaultIntervalTicks);
    /** Stop collecting; accumulated data stays exportable. */
    void disable();

    bool isOn() const { return on; }
    Tick interval() const { return intervalTicks; }

    /**
     * Allocate the next run id. A "run" is one sampled execution
     * (one LoopExecutor::run() or one campaign job after merge);
     * rows carry their run id so merged timelines keep per-run
     * timebases apart.
     */
    uint32_t beginRun() { return nextRun++; }

    /**
     * Append one sample row at @p tick for run @p run. Absent series
     * get 0 for this row; series first seen now are zero-backfilled
     * for earlier rows, keeping the matrix rectangular. The built-in
     * "spec.transitions" series (spec-bit / time-stamp changes since
     * the previous sample) is always emitted, so a run with zero
     * registered groups and zero gauges still produces rows.
     */
    void sample(Tick tick, uint32_t run,
                const std::vector<std::pair<std::string, double>>
                    &values);

    size_t numSamples() const { return ticks_.size(); }
    size_t numSeries() const { return series_.size(); }
    const std::vector<Tick> &sampleTicks() const { return ticks_; }
    const std::vector<uint32_t> &sampleRuns() const { return runs_; }
    const std::vector<Series> &allSeries() const { return series_; }

    // --- contention heatmap -------------------------------------------

    void noteDirAccess(NodeId home, Addr elem);
    void noteDirQueued(NodeId home, Addr elem);
    void noteDirConflict(NodeId home, Addr elem);
    /** One §3.2 spec-bit / §3.3 time-stamp change (built-in series). */
    void noteSpecTransition() { ++pendingSpecTransitions; }

    const std::map<std::pair<NodeId, Addr>, HeatCell> &
    heatMap() const
    {
        return heat;
    }

    // --- campaign merge -----------------------------------------------

    /**
     * Fold @p shard into this timeline: its rows are appended with
     * run ids offset past ours, its series united by name (new names
     * zero-backfilled on both sides), its heat cells summed. Called
     * in job-id order by the campaign merge path, which makes the
     * result independent of --jobs.
     */
    void merge(const Timeline &shard);

    // --- exports ------------------------------------------------------

    /**
     * The sample matrix as CSV: header "tick,run,<series...>", one
     * row per sample, then the heatmap as '#'-prefixed footer lines
     * (deterministic map order).
     */
    std::string csv() const;

    /**
     * Text "top hot elements / hot home nodes" summary for the
     * abort-attribution report; empty string when the heatmap is.
     */
    std::string hotSummary(size_t topK = 5) const;

  private:
    size_t seriesIndexOf(const std::string &name);

    bool on = false;
    Tick intervalTicks = defaultIntervalTicks;
    uint32_t nextRun = 0;
    uint64_t pendingSpecTransitions = 0;

    // Column store: ticks_/runs_ are the row keys; every Series has
    // exactly ticks_.size() values.
    std::vector<Tick> ticks_;
    std::vector<uint32_t> runs_;
    std::vector<Series> series_;
    std::map<std::string, size_t> seriesIndex;

    std::map<std::pair<NodeId, Addr>, HeatCell> heat;
};

/** The current context's timeline (per-instance, like the trace). */
Timeline &current();

// --- hot-path feeds ---------------------------------------------------
// One branch when disabled; instrumentation sites call these
// unconditionally.

inline void
dirAccess(NodeId home, Addr elem)
{
    if (enabled())
        current().noteDirAccess(home, elem);
}

inline void
dirQueued(NodeId home, Addr elem)
{
    if (enabled())
        current().noteDirQueued(home, elem);
}

inline void
dirConflict(NodeId home, Addr elem)
{
    if (enabled())
        current().noteDirConflict(home, elem);
}

inline void
specTransition()
{
    if (enabled())
        current().noteSpecTransition();
}

/**
 * Samples the current timeline every Timeline::interval() ticks for
 * the duration of one run, through the run's EventQueue clock hook
 * (EventQueue::setClockHook): the constructor installs the hook and
 * finish() removes it.
 *
 * The machine's queue is drain-driven (run() returns when the queue
 * empties), and phase durations are read off curTick afterwards. The
 * clock hook is not an event, so sampling neither keeps the queue
 * alive nor moves time, and it survives the machine resets between
 * phases.
 */
class RunSampler
{
  public:
    /**
     * Inert unless timeline::enabled() at construction: a disabled
     * timeline installs no hook. @p eq must outlive the sampler, and
     * the sampler owns the queue's clock hook until finish().
     */
    explicit RunSampler(EventQueue &eq);
    ~RunSampler() { finish(); }

    RunSampler(const RunSampler &) = delete;
    RunSampler &operator=(const RunSampler &) = delete;

    /** Sample @p name via @p fn at every sampling point. */
    void addGauge(std::string name,
                  std::function<double()> fn);

    /**
     * Sample every stat under @p group as a per-interval delta
     * ("delta." + dotted name). A stat that shrank (reset mid-run)
     * restarts from its new absolute value, the Prometheus counter
     * rule, so resets do not produce negative spikes.
     */
    void addStatDelta(const StatGroup &group);

    /** Take a final sample and go inert; idempotent. */
    void finish();

    bool active() const { return eq != nullptr; }

  private:
    /** Append one row at @p tick. */
    void takeSample(Tick tick);

    /** The sampled queue; null when inert or finished. */
    EventQueue *eq = nullptr;
    Timeline *tl = nullptr;
    uint32_t runId = 0;
    std::vector<std::pair<std::string,
                          std::function<double()>>> gauges;
    struct DeltaGroup
    {
        const StatGroup *group;
        /**
         * Previous absolute values by name, not by position, so a
         * delta never pairs one stat's value with another's.
         */
        std::map<std::string, double> prev;
    };
    std::vector<DeltaGroup> deltas;
};

} // namespace timeline
} // namespace specrt

#endif // SPECRT_SIM_TIMELINE_HH
