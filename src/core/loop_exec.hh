/**
 * @file
 * The speculative loop executor: runs one workload on one modeled
 * machine under one of four execution modes:
 *
 *  - Serial: uniprocessor execution, all data local (the paper's
 *    normalization baseline);
 *  - Ideal:  doall execution with no correctness tests (scheduling
 *    overhead and load imbalance included);
 *  - SW:     the software LRPD scheme -- backup, shadow zero-out,
 *    instrumented marking, merge + analysis phases; on failure,
 *    restore + serial re-execution after loop completion;
 *  - HW:     the paper's hardware scheme -- backup, arm the
 *    coherence-protocol extensions, run the doall; a detected
 *    dependence aborts immediately, restores, and re-executes
 *    serially.
 *
 * The executor owns the machine: each run is performed on a freshly
 * constructed DsmSystem.
 */

#ifndef SPECRT_CORE_LOOP_EXEC_HH
#define SPECRT_CORE_LOOP_EXEC_HH

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/advisor.hh"
#include "lrpd/lrpd.hh"
#include "lrpd/lrpd_codegen.hh"
#include "mem/dsm.hh"
#include "runtime/checkpoint.hh"
#include "runtime/processor.hh"
#include "runtime/scheduler.hh"
#include "runtime/workload.hh"
#include "sim/stall.hh"
#include "sim/timeline.hh"
#include "spec/invariants.hh"
#include "spec/spec_unit.hh"

namespace specrt
{

/** Execution scenario (paper section 6). */
enum class ExecMode
{
    Serial,
    Ideal,
    SW,
    HW,
};

const char *execModeName(ExecMode m);

/** Per-run configuration. */
struct ExecConfig
{
    ExecMode mode = ExecMode::HW;
    SchedPolicy sched = SchedPolicy::Dynamic;
    /** Iterations per scheduling block (BlockCyclic / Dynamic). */
    IterNum blockIters = 4;
    /** SW: processor-wise test (bitmap shadows; forces StaticChunk). */
    bool swProcWise = false;
    /**
     * SW: the section 2.2.3 read-in extension (extra Awmin shadow,
     * iteration-wise only): accepts privatized loops whose elements
     * are read before any iteration writes them.
     */
    bool swReadIn = false;
    /**
     * Run arrays declared TestType::Priv under the non-privatization
     * algorithm instead (the paper's forced-failure scenarios).
     */
    bool downgradePrivToNonPriv = false;
    /** Cap on iterations (0 = run all); the paper simulates 15,000
     *  of P3m's 97,336 iterations. */
    IterNum maxIters = 0;
    /** Keep the access trace in the result (tests). */
    bool keepTrace = false;
    /**
     * Run the protocol invariant checker (spec/invariants.hh) at the
     * run's quiesce points and count violations into the result.
     */
    bool checkInvariants = false;
    /**
     * With checkInvariants: also run the Delivery-granularity passes
     * after every network delivery of the loop phase (the explorer
     * turns this on so every reachable state is checked). Expensive;
     * off by default.
     */
    InvariantChecker::Granularity invariantGranularity =
        InvariantChecker::Granularity::Quiesce;
    /** With keepTrace: trace every array, not just those under test
     *  (profiling for the test advisor). */
    bool traceAllArrays = false;
    /**
     * Width of the privatization time stamps in bits (0 =
     * unbounded). When the loop has more iterations than 2^tsBits,
     * the paper synchronizes all processors periodically so the
     * effective iteration numbers stored in the time stamps can be
     * reset (section 3.3). The simulator's state never overflows, so
     * this models the cost: a global barrier every 2^tsBits
     * iterations.
     */
    int tsBits = 0;
};

/** Simulated durations of each phase (cycles). */
struct PhaseTimes
{
    Tick zeroOut = 0;   ///< SW shadow zero-out
    Tick backup = 0;    ///< array backup
    Tick loop = 0;      ///< the (speculative) doall itself
    Tick merge = 0;     ///< SW shadow merge
    Tick analysis = 0;  ///< SW analysis
    Tick copyOut = 0;   ///< privatized live-out copy-out
    Tick reduction = 0; ///< reduction partial-accumulator merge
    Tick restore = 0;   ///< state restore after failure
    Tick serial = 0;    ///< serial re-execution after failure

    Tick
    total() const
    {
        return zeroOut + backup + loop + merge + analysis + copyOut +
               reduction + restore + serial;
    }
};

/** Busy/Sync/Mem totals summed over processors (Fig. 12 breakdown). */
struct BreakdownAgg
{
    double busy = 0;
    double sync = 0;
    double mem = 0;
};

/** Outcome of one run. */
struct RunResult
{
    ExecMode mode = ExecMode::Serial;
    /** The speculation test passed (always true for Serial/Ideal). */
    bool passed = true;
    PhaseTimes phases;
    Tick totalTicks = 0;
    BreakdownAgg agg;
    uint64_t itersExecuted = 0;
    /** Host-side cost proxy: events the engine fired for this run. */
    uint64_t eventsFired = 0;
    /**
     * The run died of an infrastructure fault (a transaction or
     * signal exhausted its retry budget under fault injection), NOT
     * of a detected dependence. The machine state was discarded; the
     * caller must retry or degrade (see runWithDegradation).
     */
    bool infraFailed = false;
    /** What was lost, when infraFailed. */
    std::string infraReason;
    /** Protocol invariant violations found (checkInvariants). */
    uint64_t invariantViolations = 0;
    /** HW: the latched failure, if any. */
    SpecFailure hwFailure;
    /** SW: the per-array verdicts (decl index -> analysis). */
    std::map<int, LrpdAnalysis> swAnalyses;
    /** Access trace of the loop phase (only when keepTrace; empty
     *  otherwise). */
    std::vector<AccessEvent> trace;
    /**
     * Where the cycles went (when the context's critpath sink is on;
     * cost.valid == false otherwise). Every simulated tick of every
     * node is attributed: busy + sum(stalls) == numProcs *
     * totalTicks, exactly.
     */
    stall::CostBreakdown cost;
};

/** Executes one workload run. */
class LoopExecutor : public TraceSink
{
  public:
    LoopExecutor(const MachineConfig &config, Workload &workload,
                 const ExecConfig &exec_config);
    ~LoopExecutor() override;

    /** Run to completion and report. */
    RunResult run();

    /** The machine (inspectable after run()). */
    DsmSystem &machine() { return *dsm; }

    /** The speculation hardware (HW mode only; else null). */
    SpecSystem *specSystem() { return spec.get(); }

    /** The invariant checker (checkInvariants only; else null). */
    InvariantChecker *invariantChecker() { return checker.get(); }

    /**
     * The stall-attribution engine of the last run (critpath
     * profiling only; else null). Valid until the next run() or
     * destruction; tests read per-node totals off it.
     */
    stall::Engine *stallEngine() { return stallEng.get(); }

    /** Shared region of declaration @p decl_idx (after run()). */
    const Region *sharedRegion(int decl_idx) const;

    // TraceSink
    void record(NodeId proc, IterNum iter, int array_id, uint64_t elem,
                bool is_write, bool is_reduction) override;

  private:
    struct ArraySetup
    {
        ArrayDecl decl;
        int declIdx = -1;
        const Region *shared = nullptr;
        std::vector<const Region *> privCopies;
        const Region *backup = nullptr;
        std::vector<const Region *> shAw, shAr, shAnp, shAwmin;
        const Region *glAw = nullptr;
        const Region *glAr = nullptr;
        const Region *glAnp = nullptr;
        const Region *glAwmin = nullptr;
        /** Effective test in this run (after downgrade). */
        TestType effTest = TestType::None;
        /** Redirect accesses to private copies in this run. */
        bool privatized = false;
        bool needsBackup = false;

        // What the loop phase's accesses feed, filled by record().
        /** SW, NonPriv/Priv: the LRPD shadows, marked online. */
        std::unique_ptr<LrpdTest> lrpd;
        /** SW, Reduction: an access outside the reduction statement
         *  was seen (the software reduction test fails). */
        bool untaggedAccess = false;
        /** copiesOut(): per element, the highest iteration that
         *  wrote it (0 = none) and the processor that ran it, which
         *  copies the element out. */
        struct Writer
        {
            IterNum iter = 0;
            NodeId proc = 0;
        };
        std::vector<Writer> lastWriter;

        /** SW, NonPriv/Priv: the array has LRPD shadow arrays. */
        bool shadowed() const { return !shAw.empty(); }

        /** A privatized live-out array, copied out after commit
         *  (reduction arrays merge through the reduction phase). */
        bool
        copiesOut() const
        {
            return effTest == TestType::Priv && privatized &&
                   decl.liveOut;
        }
    };

    /**
     * One piece of a processor's utility program: @c gen emits the
     * ops of elements [lo, hi). A whole utility program can reach
     * megabytes per processor, so it is generated a chunk at a time
     * while it runs: @c gen is called on consecutive
     * sub-ranges, with @p first / @p last set on the calls that open
     * and close [lo, hi) (where a generator's one-off ops go).
     */
    struct ProgramSegment
    {
        uint64_t lo = 0;
        uint64_t hi = 0;
        std::function<void(IterProgram &out, uint64_t lo, uint64_t hi,
                           bool first, bool last)>
            gen;
    };
    /** A processor's whole utility program, segment by segment. */
    using SegmentList = std::vector<ProgramSegment>;

    void setup();
    void allocateArrays();
    void buildLoopBindings();
    void loadTranslationTable();

    /** Run a utility phase where proc p executes the program of
     *  segments[p], generated a chunk at a time as it runs. */
    Tick runProgramPhase(const std::vector<SegmentList> &segments,
                         const std::vector<std::vector<ArrayBinding>>
                             &bindings);

    /** Run the loop phase; returns (duration, completed normally). */
    std::pair<Tick, bool> runLoopPhase();

    Tick runBackupPhase(bool restore_direction);
    Tick runZeroOutPhase();
    Tick runMergePhase();
    Tick runAnalysisPhase();
    Tick runCopyOutPhase();
    Tick runReductionPhase();
    Tick runSerialPhase();

    void accumulate(BreakdownAgg &agg);
    void resetProcStats();

    /**
     * Close one phase of the stall accounting: each node's busy
     * delta (its phase-scoped busy counter) is recorded and the
     * unattributed remainder charged to @p residual. No-op when the
     * profiler is off or the phase had zero length (a zero-length
     * phase never ran resetPhaseStats, so the proc counters still
     * belong to the previous phase).
     */
    void settleStall(Tick dur, stall::Cause residual);

    /** Create the timeline sampler (no-op when the timeline is off). */
    void initSampler();
    /** Re-arm the sampler before an event-queue drain leg. */
    void armSampler()
    {
        if (tlSampler)
            tlSampler->arm();
    }
    /** Final sample + stop sampling (idempotent). */
    void finishSampler()
    {
        if (tlSampler)
            tlSampler->finish();
    }

    IterNum numIters() const;
    int activeProcs() const;
    /**
     * Does anything read the loop phase's accesses to @p s: SW
     * marking and the reduction check, the copy-out winners of a
     * privatized live-out array, or keepTrace? Accesses to other
     * arrays are not recorded.
     */
    bool recorded(const ArraySetup &s) const;
    /** Set up what record() feeds: the SW LRPD shadows, the
     *  reduction check and the copy-out winners. */
    void startRecording();

    MachineConfig cfg;
    Workload &w;
    ExecConfig xc;

    std::unique_ptr<DsmSystem> dsm;
    std::unique_ptr<SpecSystem> spec;
    std::unique_ptr<InvariantChecker> checker;
    std::vector<std::unique_ptr<Processor>> procs;
    /**
     * Stall-attribution engine (critpath profiling only). Declared
     * after the machine (hooks fire while it runs) and before the
     * sampler, whose final sample reads the engine's stats.
     */
    std::unique_ptr<stall::Engine> stallEng;
    /**
     * Declared after the machine members: its gauges read them, and
     * its destructor (final sample) must run before they go away.
     */
    std::unique_ptr<timeline::RunSampler> tlSampler;

    std::vector<ArraySetup> setups;
    /** Loop-phase bindings, one table per proc. */
    std::vector<std::vector<ArrayBinding>> loopBindings;
    /** Instrumentation map for SW mode. */
    std::map<int, InstrumentInfo> instrMap;

    /** The loop phase's accesses (keepTrace only). */
    std::vector<AccessEvent> trace;

    BreakdownAgg aggScratch;
    bool specAborted = false;
    bool infraAborted = false;
    std::string infraAbortReason;
    /** Per-delivery invariant checks run only inside the loop phase
     *  (utility phases quiesce between programs anyway). */
    bool deliveryChecksActive = false;
    uint64_t deliveryViolations = 0;
};

/** Retry/degradation budget of runWithDegradation. */
struct DegradationPolicy
{
    /** HW attempts (reseeding the fault schedule) before degrading
     *  to the software scheme. */
    int maxHwAttempts = 2;
    /** SW attempts before degrading to serial execution. */
    int maxSwAttempts = 1;
    /** Perturb the fault seed between attempts (a deterministic
     *  schedule would otherwise fail identically every retry). */
    bool reseedPerAttempt = true;
};

/** One rung of the degradation ladder, in execution order. */
struct DegradationStep
{
    ExecMode mode;
    bool infraFailed = false;
    bool passed = false;
    std::string reason;
};

/** What runWithDegradation did and produced. */
struct LadderOutcome
{
    /** Result of the final attempt (the one that did not infra-fail). */
    RunResult result;
    /** Executor of the final attempt (machine inspectable). */
    std::unique_ptr<LoopExecutor> exec;
    std::vector<DegradationStep> steps;
    /** Mode downgrades performed (0 = first tier succeeded). */
    int degradations = 0;
};

/**
 * Run @p w under @p xc.mode, degrading gracefully when fault
 * injection defeats the retry machinery: HW -> SW-LRPD -> Serial.
 * Each tier gets a bounded number of attempts (reseeded fault
 * schedules); the serial floor runs fault-free and cannot fail.
 * Degradations are recorded in @p log when given.
 */
LadderOutcome runWithDegradation(const MachineConfig &config,
                                 Workload &w, ExecConfig xc,
                                 const DegradationPolicy &policy = {},
                                 DegradationLog *log = nullptr);

} // namespace specrt

#endif // SPECRT_CORE_LOOP_EXEC_HH
