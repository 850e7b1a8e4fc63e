/**
 * @file
 * The modeled in-order processor.
 *
 * Executes micro-ISA iteration programs pulled from a WorkSource.
 * One op retires per cycle except memory stalls: loads block until
 * data returns; stores retire into the cache controller's write
 * buffer and only stall when it is full (the paper's "processors do
 * not stall on write misses"). Time is split into Busy / Sync / Mem
 * exactly as in the paper's Figure 12 breakdown.
 */

#ifndef SPECRT_RUNTIME_PROCESSOR_HH
#define SPECRT_RUNTIME_PROCESSOR_HH

#include <functional>
#include <vector>

#include "mem/cache_ctrl.hh"
#include "runtime/isa.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace specrt
{

/** Where an arrayId points during a phase. */
struct ArrayBinding
{
    const Region *region = nullptr;
    /** Record accesses to this array in the trace sink. */
    bool traced = false;
    /** Array identity used in trace records (the decl index). */
    int traceArrayId = -1;
    /**
     * Only reduction-tagged accesses are legal (TestType::Reduction
     * arrays); an untagged access trips the violation hook.
     */
    bool reductionOnly = false;
};

/** Receives one record per access to a traced array. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void record(NodeId proc, IterNum iter, int array_id,
                        uint64_t elem, bool is_write,
                        bool is_reduction) = 0;
};

/** Supplies ranges of iterations to processors (see scheduler.hh). */
class WorkSource
{
  public:
    struct Grant
    {
        bool done = false;
        IterNum lo = 0;     ///< first iteration (inclusive)
        IterNum hi = 0;     ///< one past the last iteration
        Cycles delay = 0;   ///< scheduling overhead (Sync time)
    };

    virtual ~WorkSource() = default;

    /** Next work for processor @p p asking at time @p now. */
    virtual Grant next(NodeId p, Tick now) = 0;
};

/** One modeled processor. */
class Processor : public StatGroup
{
  public:
    using IterGen = std::function<void(IterNum, IterProgram &)>;
    /**
     * Fills the (emptied) program with the next chunk of the current
     * iteration; leaving it empty ends the iteration.
     */
    using Refill = std::function<void(IterProgram &)>;
    using DoneCb = std::function<void(NodeId)>;

    Processor(NodeId node, EventQueue &eq, CacheCtrl &cache,
              const MachineConfig &config);

    NodeId nodeId() const { return node; }

    void setBindings(const std::vector<ArrayBinding> *b)
    {
        bindings = b;
    }
    void setTraceSink(TraceSink *sink) { trace = sink; }

    /**
     * Hook fired when a non-reduction access touches a
     * reduction-only array (the hardware's tagged-access check),
     * with the accessing node, element and iteration.
     */
    void
    setViolationHook(std::function<void(NodeId, Addr, IterNum)> hook)
    {
        violationHook = std::move(hook);
    }

    /**
     * Run a phase: repeatedly pull iteration ranges from @p source,
     * generate each iteration's program with @p gen, and execute it.
     * @p drain_per_iter forces the write buffer empty at each
     * iteration boundary (required for the privatization algorithm's
     * per-iteration tag clearing). @p done fires when the source is
     * exhausted and the write buffer has drained. With @p refill, an
     * iteration's program arrives in chunks: running off the end of
     * one calls @p refill for the next, within the same iteration and
     * at the same tick, so chunking never changes timing.
     */
    void startPhase(WorkSource *source, IterGen gen,
                    bool drain_per_iter, DoneCb done,
                    Refill refill = nullptr);

    /** Abandon any in-flight phase state (machine abort). */
    void hardStop();

    double busyCycles() const { return busy.value(); }
    double syncCycles() const { return sync.value(); }
    double memCycles() const { return mem.value(); }
    uint64_t itersExecuted() const
    {
        return static_cast<uint64_t>(iters.value());
    }

    /** Directly add sync time (barrier waits, added by executor). */
    void addSyncCycles(double cycles) { sync += cycles; }

    /**
     * Speculative iterations claimed but not yet finished (timeline
     * gauge): the rest of the current chunk while a phase is active.
     */
    uint64_t outstandingIters() const
    {
        return active && chunkHi > curIter
                   ? static_cast<uint64_t>(chunkHi - curIter)
                   : 0;
    }

    void resetPhaseStats();

  private:
    void fetchWork();
    void beginIteration();
    void step();
    void finishIteration();
    void issueLoad(const Op &op);
    void issueStore(const Op &op, Tick stall_start);
    void execNonMem(const Op &op);

    /** Resolve the address + element index of a memory op. */
    std::pair<Addr, uint64_t> resolve(const Op &op) const;
    int64_t indexValue(const IndexOperand &idx) const;

    NodeId node;
    EventQueue &eq;
    CacheCtrl &cache;
    const MachineConfig &cfg;

    const std::vector<ArrayBinding> *bindings = nullptr;
    TraceSink *trace = nullptr;
    std::function<void(NodeId, Addr, IterNum)> violationHook;

    // Phase state.
    WorkSource *source = nullptr;
    IterGen gen;
    Refill refill;
    DoneCb doneCb;
    bool drainPerIter = false;
    bool active = false;

    // Current work.
    IterNum curIter = 0;
    IterNum chunkHi = 0;
    IterProgram prog;
    size_t pc = 0;
    int64_t regs[numRegs] = {};

    // Write-buffer stall bookkeeping.
    bool stalledOnWb = false;
    Op stalledOp;
    Tick stallStart = 0;

    Scalar busy;
    Scalar sync;
    Scalar mem;
    Scalar iters;
};

} // namespace specrt

#endif // SPECRT_RUNTIME_PROCESSOR_HH
