/**
 * @file
 * Stall-attribution engine: charge every processor-idle tick to
 * exactly one cause.
 *
 * The Fig. 12 breakdown (runtime/processor.hh) already splits each
 * processor's ticks into busy / sync / mem, but "mem" lumps together
 * very different waits: the home directory queue, network transit,
 * watchdog retry backoff, and the memory service itself. A run
 * bounded by directory occupancy wants a different remedy than one
 * bounded by network hops, so the engine splits them.
 *
 * The Engine keeps one per-node accumulator per Cause. It belongs to
 * the critical-path recorder (sim/critpath.hh), the one owner of
 * cost accounting: Recorder::beginRun() creates the run's engine
 * and Recorder::endRun() folds its CostBreakdown into the recorder's
 * totals. Hook sites deep inside the machine reach it through
 * active(), which follows the trace::enabled() guard discipline:
 * the critpath bit of the probe word (sim/probe.hh) makes the
 * disabled case one predictable branch.
 *
 * Attribution model
 * -----------------
 * A node has at most one load miss outstanding (mem/cache_ctrl.hh),
 * so the engine keeps one pending-load scratch record per node:
 *
 *  - cache_ctrl opens it on a load miss (loadBegin) and credits each
 *    watchdog retry window (retryWindow);
 *  - dir_ctrl credits the home-queue + controller-occupancy wait of
 *    the matching request (dirWait), matched by (requester, txnSeq);
 *  - the network credits each hop of the request/forward/reply legs
 *    (netLeg), same matching;
 *  - the processor closes it when the load completes (loadWait),
 *    reporting the wait it actually charged to "mem"; the engine
 *    reconciles: component credits are clamped so they never exceed
 *    the measured wait (retry, then net, then dir give back first),
 *    and the unexplained remainder is charged to Cause::LoadMiss
 *    (the memory service itself).
 *
 * Credits for transactions without a matching scratch record (store
 * transactions, stray retried messages) are dropped, never charged:
 * over-attribution would break the accounting invariant below.
 *
 * The executor closes every simulated phase with settlePhase(),
 * which re-marks with beginPhase() for the next one. settlePhase()
 * charges each node's unattributed remainder (phase ticks - busy -
 * stalls charged since the mark) to the phase's residual cause --
 * Other for the loop, CommitSerial for the utility phases that
 * commit, AbortRedo for restore + serial re-execution; the barrier
 * closing a multi-node phase is charged to Barrier as it happens --
 * and, should attribution ever exceed the phase length (fault
 * injection can misalign a retry window), deterministically gives
 * back the excess. The invariant
 *
 *     busy(n) + sum over causes of stall(n, c) == run ticks
 *
 * therefore holds exactly, per node, by construction; tests assert
 * it tick-for-tick.
 *
 * The engine is a StatGroup ("stall") of per-node VectorStats, so
 * handing it to timeline::RunSampler::addStatDelta() yields
 * delta.stall.* timeline series for free.
 */

#ifndef SPECRT_SIM_STALL_HH
#define SPECRT_SIM_STALL_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/probe.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace specrt
{

namespace critpath
{
class Recorder;
}

namespace stall
{

/** Why a processor tick was not busy. */
enum class Cause : uint8_t
{
    LoadMiss,     ///< load miss in flight (memory service itself)
    DirQueue,     ///< queued behind a txn / controller occupancy
    NetTransit,   ///< network hops of the miss transaction
    RetryBackoff, ///< watchdog retry windows (lost/slow messages)
    Barrier,      ///< barrier imbalance + barrier episodes
    SchedWait,    ///< dynamic-scheduling lock serialization
    CommitSerial, ///< commit/validate/merge serialization
    AbortRedo,    ///< failed-speculation restore + serial redo
    Other,        ///< attributed to no specific component
    NumCauses,
};

constexpr size_t numCauses = static_cast<size_t>(Cause::NumCauses);

/** Stable stat/report name of a cause, e.g.\ "dir_queue". */
const char *causeName(Cause c);

/** Hyphenated human name for reports, e.g.\ "dir-queue". */
const char *causePrettyName(Cause c);

/**
 * Cost breakdown of one run (RunResult::cost, core/loop_exec.hh) or
 * of a run set (critpath::Recorder::totals(), the report's "cost"
 * section).
 *
 * All cycle figures are summed over nodes, and the accounting
 * invariant guarantees busy + sum(stalls) == nodeTicks exactly, for
 * one run and for a run set whose runs differ in node count. (For a
 * set, numProcs * perNodeTicks overstates nodeTicks: numProcs is the
 * largest run's.)
 */
struct CostBreakdown
{
    /** The profiler was enabled for this run (else all zeros). */
    bool valid = false;
    /** Nodes of the run (of a run set: the largest run's). */
    int numProcs = 0;
    /** Run length (equals RunResult::totalTicks); a run set sums. */
    double perNodeTicks = 0;
    /** numProcs * perNodeTicks of each run, summed over a run set. */
    double nodeTicks = 0;
    double busy = 0;
    std::array<double, numCauses> stalls{};

    double stallOf(Cause c) const
    {
        return stalls[static_cast<size_t>(c)];
    }
    /** Sum of every stall cause. */
    double stallTotal() const;
    /** The cause holding the most stall cycles (ties: lowest). */
    Cause dominantCause() const;
    /** Share of total stall time held by the dominant cause [0,1]. */
    double dominantShare() const;
    /**
     * One-line report naming the dominant cost component, e.g.\
     * "run bounded 61% by dir-queue"; "" when nothing was attributed.
     */
    std::string summary() const;

    /** Fold @p c in (procs is a max, ticks sum); no-op if invalid. */
    void add(const CostBreakdown &c);
};

/** Per-node stall accounting for one profiled run. */
class Engine : public StatGroup
{
  public:
    /**
     * @param txn_sink receives each completed load-miss transaction
     * (loadWait()); null keeps none.
     */
    explicit Engine(int num_procs,
                    critpath::Recorder *txn_sink = nullptr);

    int numProcs() const { return nProcs; }

    // --- hot-path feeds (hook sites reach the engine via active()) ---

    /** A load miss left node @p n (txn sequence @p seq). */
    void loadBegin(NodeId n, uint64_t seq, Addr line, Addr elem,
                   IterNum iter, NodeId home, Tick now);

    /** The home dir held @p n's txn @p seq for @p wait cycles. */
    void dirWait(NodeId n, uint64_t seq, double wait);

    /** One network leg of @p n's txn @p seq took @p hop cycles. */
    void netLeg(NodeId n, uint64_t seq, double hop);

    /** Node @p n's txn @p seq sat out a retry window of @p w cycles. */
    void retryWindow(NodeId n, uint64_t seq, double w);

    /**
     * Node @p n's outstanding load completed after waiting @p wait
     * cycles (the amount the processor charged to "mem"). Reconciles
     * component credits against the measured wait, charges the
     * remainder to LoadMiss, and emits the transaction record to the
     * critical-path recorder (when given one).
     */
    void loadWait(NodeId n, double wait, Tick now);

    /** Charge @p t cycles on node @p n to @p c directly. */
    void charge(NodeId n, Cause c, double t);

    // --- phase bracketing (loop_exec) ---------------------------------

    /** Mark the start of a simulated phase. */
    void beginPhase();

    /**
     * Close the current phase of length @p phase_ticks: each node's
     * busy delta is recorded, the unattributed remainder is charged
     * to @p residual_cause, and any over-attribution is given back
     * (see file comment). @p busy_delta has one entry per node.
     */
    void settlePhase(double phase_ticks,
                     const std::vector<double> &busy_delta,
                     Cause residual_cause);

    // --- inspection ---------------------------------------------------

    double busyOf(NodeId n) const { return busy[n]; }
    double total(NodeId n, Cause c) const
    {
        return (*causes[static_cast<size_t>(c)])[n];
    }
    /** Sum of every cause on node @p n. */
    double attributed(NodeId n) const;
    /** Sum of @p c over all nodes. */
    double causeTotal(Cause c) const
    {
        return causes[static_cast<size_t>(c)]->total();
    }
    /** Run ticks settled so far (same for every node). */
    double settledTicks() const { return settled; }

    /** Every node's busy and stall cycles, summed, over @p run_ticks. */
    CostBreakdown breakdown(double run_ticks) const;

  private:
    /** The (single) outstanding load miss of one node. */
    struct PendingLoad
    {
        bool open = false;
        uint64_t seq = 0;
        Addr line = 0;
        Addr elem = 0;
        IterNum iter = 0;
        NodeId home = 0;
        Tick start = 0;
        double dir = 0;
        double net = 0;
        double retry = 0;
    };

    int nProcs;
    VectorStat busy;
    std::array<std::unique_ptr<VectorStat>, numCauses> causes;
    Scalar overrun;
    std::vector<PendingLoad> pending;
    /** Per-node per-cause totals at beginPhase() (settle deltas). */
    std::vector<std::array<double, numCauses>> phaseMark;
    double settled = 0;
    critpath::Recorder *recorder = nullptr;
};

/** The current context's critpath recorder's engine (may be null). */
Engine *current();

/**
 * The engine hook sites feed: `if (Engine *e = active()) e->...`.
 * Null, after one bit test, when the critpath sink is off.
 */
inline Engine *
active()
{
    return probe::on(probe::Critpath) ? current() : nullptr;
}

} // namespace stall
} // namespace specrt

#endif // SPECRT_SIM_STALL_HH
