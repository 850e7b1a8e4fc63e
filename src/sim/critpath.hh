/**
 * @file
 * Critical-path recorder: per-transaction latency records and the
 * dominant-chain report.
 *
 * The stall engine (sim/stall.hh) says how many cycles each node lost
 * to each cause; the recorder says *which transactions* carried the
 * loss. It is also the one owner of cost accounting: beginRun()
 * creates each profiled run's engine and endRun() folds the engine's
 * CostBreakdown into totals(), which feeds critpath.json and the
 * report's "cost" section. It keeps, per profiled run set:
 *
 *  - per-transaction latency records for the slowest load misses
 *    (request -> dir queue -> forward -> ack), with the queue-wait /
 *    network / retry / service split the stall engine reconciled;
 *  - a per-home-node aggregation of directory queue wait (who was
 *    the hot home, over which element range);
 *  - the run-level cost totals, from which the dependence-chain
 *    reducer derives the dominant chain, e.g.\
 *    "run bounded 61% by dir-queue at home node 3,
 *     elements 0x400-0x5f8".
 *
 * The report lands in three places: the abort-attribution warn
 * channel (spec/spec_unit.cc), report.json (obs/report.hh), and a
 * standalone Perfetto JSON export whose async track (pid 9997)
 * renders each slow transaction as nested "b"/"e" slices -- one
 * child slice per latency component.
 *
 * Like the trace and the timeline, the recorder is instance-scoped:
 * the current SimContext owns one, campaign jobs each fill their own,
 * and merge() folds job recorders into the process-level one in
 * job-id order, so `--jobs N` exports are byte-identical to
 * `--jobs 1`. Everything here is host-side observability: enabling
 * it never changes modeled timing, and the hot-path guard is one bit
 * of the probe word (sim/probe.hh).
 */

#ifndef SPECRT_SIM_CRITPATH_HH
#define SPECRT_SIM_CRITPATH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/probe.hh"
#include "sim/stall.hh"
#include "sim/types.hh"

namespace specrt
{
namespace critpath
{

/** One completed load-miss transaction (latency split in cycles). */
struct TxnRecord
{
    NodeId node = 0;   ///< requester
    NodeId home = 0;   ///< home directory of the line
    Addr line = 0;
    Addr elem = 0;
    IterNum iter = 0;
    uint64_t seq = 0;  ///< cache-controller txn sequence
    Tick start = 0;
    Tick end = 0;
    double dirWait = 0; ///< home queue + controller occupancy
    double net = 0;     ///< network transit
    double retry = 0;   ///< watchdog retry windows
    double service = 0; ///< memory/owner service (the remainder)

    double latency() const { return static_cast<double>(end - start); }
};

class Recorder
{
  public:
    /** Transaction records kept (the slowest ones). */
    static constexpr size_t topK = 32;

    /** Synthetic Perfetto pid of the critical-path async track. */
    static constexpr int perfettoPid = 9997;

    /** Start collecting; idempotent, keeps accumulated data. */
    void enable();
    /** Stop collecting; accumulated data stays exportable. */
    void disable();
    bool isOn() const { return on; }

    /** Per-home directory-queue aggregation. */
    struct HomeAgg
    {
        double dirWait = 0;
        uint64_t txns = 0;
        Addr minElem = static_cast<Addr>(-1);
        Addr maxElem = 0;
    };

    /**
     * Start a profiled run on @p nprocs nodes (LoopExecutor::run()):
     * a fresh stall engine, feeding this recorder's transaction
     * records, replaces the previous run's.
     */
    stall::Engine &beginRun(int nprocs);

    /**
     * Close the run begun last, of @p total_ticks: fold the engine's
     * breakdown into totals() and return it (RunResult::cost). The
     * engine stays readable until the next beginRun().
     */
    stall::CostBreakdown endRun(Tick total_ticks);

    /**
     * The last run's engine: null before the first beginRun(), and in
     * a recorder moved into (the engine stays with the recorder it
     * feeds).
     */
    stall::Engine *engine() const { return eng.p.get(); }

    /** Fold in one completed transaction (stall::Engine calls this). */
    void addTxn(const TxnRecord &r);

    bool hasData() const { return runsSeen > 0 || txnsSeen > 0; }
    uint64_t numRuns() const { return runsSeen; }
    uint64_t numTxns() const { return txnsSeen; }
    /** Every closed run's breakdown, summed (CostBreakdown::add). */
    const stall::CostBreakdown &totals() const { return sum; }
    const std::vector<TxnRecord> &slowest() const { return top; }

    /**
     * Fold @p shard into this recorder: totals and home aggregates
     * sum, slowest-transaction lists merge and re-truncate (the
     * shard's engine stays with the shard). Called
     * in job-id order by the campaign merge path, making the result
     * independent of --jobs.
     */
    void merge(const Recorder &shard);

    /**
     * The dominant-chain report, e.g.\ "run bounded 61% by dir-queue
     * at home node 3, elements 0x400-0x5f8". Empty when nothing was
     * attributed.
     */
    std::string summaryLine() const;

    /**
     * Standalone Chrome/Perfetto JSON: an async track (pid 9997, one
     * tid per node) with nested per-component slices for each slow
     * transaction, plus a machine-readable "critpath" object with
     * the cause totals and the summary line.
     */
    std::string perfettoJson() const;

    /**
     * Append this recorder's async-track events to an existing
     * traceEvents stream (sim/trace_export.cc merges them into the
     * combined trace JSON). @p first tracks comma placement.
     */
    void appendTraceEvents(std::string &out, bool &first) const;

  private:
    /** The last run's engine; it points here, so moves leave it. */
    struct EngineSlot
    {
        std::unique_ptr<stall::Engine> p;
        EngineSlot() = default;
        EngineSlot(EngineSlot &&) noexcept {}
        EngineSlot &operator=(EngineSlot &&) noexcept { return *this; }
    };

    bool on = false;
    EngineSlot eng;
    stall::CostBreakdown sum;
    uint64_t runsSeen = 0;
    uint64_t txnsSeen = 0;
    std::map<NodeId, HomeAgg> homeAgg;
    /** Kept sorted slowest-first, at most topK entries. */
    std::vector<TxnRecord> top;
};

/** The current context's recorder (per-instance, like the trace). */
Recorder &current();

/** Cheap guard; true when the current recorder collects. */
inline bool enabled() { return probe::on(probe::Critpath); }

} // namespace critpath
} // namespace specrt

#endif // SPECRT_SIM_CRITPATH_HH
