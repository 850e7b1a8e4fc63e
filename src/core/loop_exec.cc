#include "core/loop_exec.hh"

#include <algorithm>
#include <cinttypes>

#include "obs/event_log.hh"
#include "sim/critpath.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"
#include "sim/trace.hh"

namespace specrt
{

namespace
{

/** Emit an executor-level marker record (no-op when tracing is off). */
void
traceMark(trace::TraceOp op, Tick tick, const char *label,
          uint64_t a = 0)
{
    if (!trace::enabled())
        return;
    trace::TraceRecord r;
    r.tick = tick;
    r.op = op;
    r.a = a;
    r.label = label;
    trace::buffer().emit(r);
}

/**
 * Open a new loop track: every executor run gets a fresh loop id so
 * records from consecutive runs (degradation retries, epochs of a
 * sweep) stay distinguishable in the exported trace.
 */
void
beginTraceLoop(Tick tick, const char *mode, uint64_t iters)
{
    if (!trace::enabled())
        return;
    trace::buffer().setLoop(trace::nextLoopId());
    traceMark(trace::TraceOp::LoopBegin, tick, mode, iters);
}

/**
 * Ops per chunk of a generated utility program. A processor holds one
 * chunk at a time; a chunk ends with the first element that reaches
 * this size.
 */
constexpr size_t chunkOps = 256;

/** Hands each processor exactly one pseudo-iteration [p+1, p+2). */
class OneShotSource : public WorkSource
{
  public:
    explicit OneShotSource(int num_procs) : given(num_procs, false) {}

    Grant
    next(NodeId p, Tick) override
    {
        if (given.at(p))
            return {true, 0, 0, 0};
        given[p] = true;
        return {false, p + 1, p + 2, 0};
    }

  private:
    std::vector<bool> given;
};

/**
 * Shift another source's grants by a fixed iteration offset (used
 * to run one time-stamp epoch [offset+1, offset+count]).
 */
class ShiftedSource : public WorkSource
{
  public:
    ShiftedSource(WorkSource &inner, IterNum offset)
        : inner(inner), offset(offset)
    {}

    Grant
    next(NodeId p, Tick now) override
    {
        Grant g = inner.next(p, now);
        if (!g.done) {
            g.lo += offset;
            g.hi += offset;
        }
        return g;
    }

  private:
    WorkSource &inner;
    IterNum offset;
};

/** Split [0, n) into proc-many contiguous slices. */
std::pair<uint64_t, uint64_t>
sliceOf(uint64_t n, int procs, int p)
{
    uint64_t per = n / procs;
    uint64_t extra = n % procs;
    uint64_t lo = p * per + std::min<uint64_t>(p, extra);
    uint64_t size = per + (static_cast<uint64_t>(p) < extra ? 1 : 0);
    return {lo, lo + size};
}

} // namespace

const char *
execModeName(ExecMode m)
{
    switch (m) {
      case ExecMode::Serial: return "Serial";
      case ExecMode::Ideal:  return "Ideal";
      case ExecMode::SW:     return "SW";
      case ExecMode::HW:     return "HW";
    }
    return "Unknown";
}

LoopExecutor::LoopExecutor(const MachineConfig &config,
                           Workload &workload,
                           const ExecConfig &exec_config)
    : cfg(config), w(workload), xc(exec_config)
{
}

LoopExecutor::~LoopExecutor()
{
    // The engine was published through the current context
    // (stall::install); retract it before it dies.
    if (stallEng && stall::current() == stallEng.get())
        stall::install(nullptr);
}

IterNum
LoopExecutor::numIters() const
{
    IterNum n = w.numIters();
    if (xc.maxIters > 0 && xc.maxIters < n)
        n = xc.maxIters;
    return n;
}

int
LoopExecutor::activeProcs() const
{
    return xc.mode == ExecMode::Serial ? 1 : cfg.numProcs;
}

bool
LoopExecutor::recorded(const ArraySetup &s) const
{
    if (xc.mode == ExecMode::Serial)
        return false;
    if (xc.keepTrace &&
        (s.effTest != TestType::None || xc.traceAllArrays))
        return true;
    if (xc.mode == ExecMode::SW)
        return s.effTest != TestType::None;
    return xc.mode == ExecMode::HW && s.copiesOut();
}

void
LoopExecutor::startRecording()
{
    trace.clear();
    for (ArraySetup &s : setups) {
        if (s.shadowed()) {
            bool read_in =
                xc.swReadIn && !xc.swProcWise && s.privatized;
            s.lrpd = std::make_unique<LrpdTest>(
                s.decl.elems, activeProcs(), s.privatized, read_in);
        }
        if ((xc.mode == ExecMode::SW || xc.mode == ExecMode::HW) &&
            s.copiesOut())
            s.lastWriter.assign(s.decl.elems, {});
    }
}

const Region *
LoopExecutor::sharedRegion(int decl_idx) const
{
    return setups.at(decl_idx).shared;
}

void
LoopExecutor::record(NodeId proc, IterNum iter, int array_id,
                     uint64_t elem, bool is_write, bool is_reduction)
{
    if (xc.keepTrace)
        trace.push_back(
            {proc, iter, elem, is_write, array_id, is_reduction});
    ArraySetup &s = setups[array_id];
    if (s.lrpd) {
        // Processor-wise, each processor is one super-iteration.
        IterNum key = xc.swProcWise ? proc + 1 : iter;
        if (is_write)
            s.lrpd->markWrite(proc, key, elem);
        else
            s.lrpd->markRead(proc, key, elem);
    }
    if (!is_reduction && s.effTest == TestType::Reduction)
        s.untaggedAccess = true;
    if (is_write && !s.lastWriter.empty() &&
        iter > s.lastWriter[elem].iter)
        s.lastWriter[elem] = {iter, proc};
}

void
LoopExecutor::allocateArrays()
{
    AddrMap &mem = dsm->memory();
    Placement pl = xc.mode == ExecMode::Serial ? Placement::Fixed
                                               : Placement::RoundRobin;
    bool parallel_tested =
        xc.mode == ExecMode::SW || xc.mode == ExecMode::HW;

    std::vector<ArrayDecl> decls = w.arrays();
    setups.clear();
    setups.reserve(decls.size());

    for (size_t i = 0; i < decls.size(); ++i) {
        const ArrayDecl &d = decls[i];
        ArraySetup s;
        s.decl = d;
        s.declIdx = static_cast<int>(i);
        s.effTest = d.test;
        if (xc.downgradePrivToNonPriv && d.test == TestType::Priv)
            s.effTest = TestType::NonPriv;
        s.privatized = (s.effTest == TestType::Priv ||
                        s.effTest == TestType::Reduction) &&
                       xc.mode != ExecMode::Serial;
        // Reduction arrays' shared copies stay untouched until the
        // final merge, so they never need a backup either.
        s.needsBackup = parallel_tested && d.modified && !s.privatized;

        uint64_t bytes = d.elems * d.elemBytes;
        int id = mem.alloc(d.name, bytes, d.elemBytes, pl, 0);
        s.shared = &mem.region(id);

        if (s.privatized) {
            for (int p = 0; p < activeProcs(); ++p) {
                int pid = mem.alloc(d.name + "_priv" + std::to_string(p),
                                    bytes, d.elemBytes, Placement::Fixed,
                                    p);
                s.privCopies.push_back(&mem.region(pid));
            }
        }
        if (s.needsBackup) {
            int bid = mem.alloc(d.name + "_bak", bytes, d.elemBytes, pl,
                                0);
            s.backup = &mem.region(bid);
        }

        if (xc.mode == ExecMode::SW &&
            (s.effTest == TestType::NonPriv ||
             s.effTest == TestType::Priv)) {
            bool pw = xc.swProcWise;
            // Iteration-wise shadows hold iteration numbers (2
            // bytes supports 2^16 iterations, as in the paper);
            // processor-wise shadows are bit-packed.
            uint64_t sh_elems = pw ? (d.elems + 7) / 8 : d.elems;
            uint32_t sh_eb = pw ? 1 : 2;
            uint64_t sh_bytes = sh_elems * sh_eb;
            auto sh_alloc = [&](const std::string &suffix, Placement spl,
                                NodeId node) {
                int sid = mem.alloc(d.name + suffix, sh_bytes, sh_eb,
                                    spl, node);
                return &mem.region(sid);
            };
            bool read_in = xc.swReadIn && !pw && s.privatized;
            for (int p = 0; p < activeProcs(); ++p) {
                std::string ps = std::to_string(p);
                s.shAw.push_back(
                    sh_alloc("_shw" + ps, Placement::Fixed, p));
                s.shAr.push_back(
                    sh_alloc("_shr" + ps, Placement::Fixed, p));
                if (s.privatized)
                    s.shAnp.push_back(
                        sh_alloc("_shnp" + ps, Placement::Fixed, p));
                if (read_in)
                    s.shAwmin.push_back(
                        sh_alloc("_shwm" + ps, Placement::Fixed, p));
            }
            s.glAw = sh_alloc("_glw", Placement::RoundRobin, 0);
            s.glAr = sh_alloc("_glr", Placement::RoundRobin, 0);
            if (s.privatized)
                s.glAnp = sh_alloc("_glnp", Placement::RoundRobin, 0);
            if (read_in)
                s.glAwmin =
                    sh_alloc("_glwm", Placement::RoundRobin, 0);
        }

        setups.push_back(std::move(s));
    }
}

void
LoopExecutor::buildLoopBindings()
{
    loopBindings.assign(cfg.numProcs, {});
    instrMap.clear();

    for (int p = 0; p < cfg.numProcs; ++p) {
        std::vector<ArrayBinding> &table = loopBindings[p];
        for (const ArraySetup &s : setups) {
            ArrayBinding b;
            b.region = s.privatized && p < static_cast<int>(
                                               s.privCopies.size())
                           ? s.privCopies[p]
                           : s.shared;
            b.traced = recorded(s);
            b.traceArrayId = s.declIdx;
            b.reductionOnly = s.effTest == TestType::Reduction &&
                              s.privatized;
            table.push_back(b);
        }
    }

    if (xc.mode != ExecMode::SW)
        return;

    // Append per-processor shadow bindings and record the
    // instrumentation layout (identical across processors).
    // Reduction arrays have no shadows: the compiler knows which
    // accesses sit inside the reduction statement.
    for (const ArraySetup &s : setups) {
        if (!s.shadowed())
            continue;
        InstrumentInfo info;
        info.procWise = xc.swProcWise;
        info.privatized = s.privatized;
        bool read_in = !s.shAwmin.empty();
        int base = static_cast<int>(loopBindings[0].size());
        info.shadows.aw = base;
        info.shadows.ar = base + 1;
        int next = base + 2;
        if (s.privatized)
            info.shadows.anp = next++;
        if (read_in)
            info.shadows.awmin = next++;
        instrMap[s.declIdx] = info;

        for (int p = 0; p < cfg.numProcs; ++p) {
            int q = std::min(p, activeProcs() - 1);
            loopBindings[p].push_back({s.shAw[q], false, -1});
            loopBindings[p].push_back({s.shAr[q], false, -1});
            if (s.privatized)
                loopBindings[p].push_back({s.shAnp[q], false, -1});
            if (read_in)
                loopBindings[p].push_back({s.shAwmin[q], false, -1});
        }
    }
}

void
LoopExecutor::loadTranslationTable()
{
    if (!spec)
        return;
    TranslationTable &table = spec->table();
    table.clear();
    for (const ArraySetup &s : setups) {
        if (s.effTest == TestType::NonPriv) {
            table.addNonPriv(*s.shared);
        } else if (s.effTest == TestType::Priv && s.privatized) {
            table.addPriv(*s.shared, s.privCopies);
        }
        // Reduction arrays need no coherence extension: the
        // tagged-access check guards them at the processors.
    }
}

void
LoopExecutor::setup()
{
    cfg.validate();
    dsm = std::make_unique<DsmSystem>(cfg);
    if (xc.mode == ExecMode::HW)
        spec = std::make_unique<SpecSystem>(*dsm);

    checker.reset();
    deliveryChecksActive = false;
    deliveryViolations = 0;
    if (xc.checkInvariants) {
        checker = std::make_unique<InvariantChecker>(*dsm);
        if (spec)
            checker->setSpecSystem(spec.get());
        checker->newRun();
        if (xc.invariantGranularity ==
            InvariantChecker::Granularity::Delivery) {
            dsm->eventQueue().setPostFireHook(
                [this](Tick, EventKind k) {
                    if (deliveryChecksActive &&
                        k == EventKind::Network)
                        deliveryViolations += checker->checkAll(
                            InvariantChecker::Granularity::Delivery);
                });
        }
    }

    infraAborted = false;
    infraAbortReason.clear();
    dsm->setTxnLostHook([this](const char *what) {
        if (!infraAborted) {
            infraAborted = true;
            infraAbortReason =
                std::string(what) + " exhausted its retry budget";
        }
        dsm->eventQueue().stop();
    });

    procs.clear();
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        procs.push_back(std::make_unique<Processor>(
            n, dsm->eventQueue(), dsm->cacheCtrl(n), cfg));
        procs.back()->setTraceSink(this);
    }

    allocateArrays();

    std::vector<const Region *> shared;
    for (const ArraySetup &s : setups)
        shared.push_back(s.shared);
    w.initData(dsm->memory(), shared);

    // Initialize private copies from the shared contents (models
    // copy-in; the hardware scheme's read-in cost is charged by the
    // protocol itself, see DESIGN.md). Reduction accumulators stay
    // at the identity (zero).
    for (const ArraySetup &s : setups) {
        if (s.effTest == TestType::Reduction)
            continue;
        for (const Region *c : s.privCopies)
            dsm->memory().copyBytes(s.shared->base, c->base,
                                    s.decl.elems * s.decl.elemBytes);
    }

    buildLoopBindings();
    loadTranslationTable();

    specAborted = false;
    if (spec) {
        spec->setAbortHook([this]() {
            specAborted = true;
            dsm->eventQueue().stop();
        });
        // The tagged-access check for reduction arrays fails the
        // speculation like any coherence-detected dependence.
        for (auto &p : procs) {
            p->setViolationHook([this](NodeId n, Addr a) {
                spec->fail(n, a,
                           "non-reduction access to an array under "
                           "the reduction test");
            });
        }
    }
}

void
LoopExecutor::resetProcStats()
{
    for (auto &p : procs)
        p->resetPhaseStats();
}

void
LoopExecutor::accumulate(BreakdownAgg &agg)
{
    for (auto &p : procs) {
        agg.busy += p->busyCycles();
        agg.sync += p->syncCycles();
        agg.mem += p->memCycles();
    }
}

void
LoopExecutor::settleStall(Tick dur, stall::Cause residual)
{
    if (!stallEng || dur == 0)
        return;
    std::vector<double> busy_d(procs.size(), 0.0);
    for (size_t p = 0; p < procs.size(); ++p)
        busy_d[p] = procs[p]->busyCycles();
    stallEng->settlePhase(static_cast<double>(dur), busy_d, residual);
}

std::pair<Tick, bool>
LoopExecutor::runLoopPhase()
{
    EventQueue &eq = dsm->eventQueue();
    Tick phase_start = eq.curTick();
    int n_procs = activeProcs();
    resetProcStats();

    struct DeliveryCheckGuard
    {
        bool *flag;
        ~DeliveryCheckGuard() { *flag = false; }
    } delivery_guard{&deliveryChecksActive};
    deliveryChecksActive =
        checker && xc.invariantGranularity ==
                       InvariantChecker::Granularity::Delivery;

    SchedPolicy pol = xc.sched;
    if (xc.mode == ExecMode::Serial)
        pol = SchedPolicy::StaticChunk;
    if (xc.mode == ExecMode::SW && xc.swProcWise)
        pol = SchedPolicy::StaticChunk; // the proc-wise constraint

    bool any_priv = false;
    for (const ArraySetup &s : setups)
        any_priv |= s.privatized;
    bool drain = xc.mode == ExecMode::HW && any_priv;

    Processor::IterGen gen;
    if (xc.mode == ExecMode::SW) {
        gen = [this](IterNum i, IterProgram &out) {
            IterProgram body;
            w.genIteration(i, body);
            lrpdInstrument(body, out, i, instrMap);
        };
    } else {
        gen = [this](IterNum i, IterProgram &out) {
            w.genIteration(i, out);
        };
    }

    startRecording();

    // Fault injection targets the loop phase only (the recovery
    // machinery under test guards speculative execution; utility
    // phases and the serial baseline run fault-free).
    FaultPlan &plan = dsm->faultPlan();
    bool inject = plan.config().anyFaults() &&
                  xc.mode != ExecMode::Serial;
    struct PlanGuard
    {
        FaultPlan *p;
        ~PlanGuard()
        {
            if (p)
                p->disarm();
        }
    } plan_guard{inject ? &plan : nullptr};
    if (inject)
        plan.arm();

    // Time-stamp epochs: with tsBits set, a global barrier separates
    // every 2^tsBits iterations (section 3.3's periodic
    // synchronization for time-stamp overflow).
    IterNum total = numIters();
    IterNum epoch_len = total;
    if (xc.tsBits > 0 && xc.tsBits < 62)
        epoch_len = std::min<IterNum>(total, IterNum(1) << xc.tsBits);

    for (IterNum offset = 0; offset < total; offset += epoch_len) {
        IterNum count = std::min<IterNum>(epoch_len, total - offset);
        auto source = makeSource(pol, count, n_procs, xc.blockIters,
                                 cfg.schedLockCycles);
        ShiftedSource shifted(*source, offset);

        Tick epoch_start = eq.curTick();
        int done = 0;
        std::vector<Tick> done_tick(n_procs, epoch_start);
        for (int p = 0; p < n_procs; ++p) {
            procs[p]->setBindings(&loopBindings[p]);
            procs[p]->startPhase(&shifted, gen, drain,
                                 [&, p](NodeId) {
                                     done_tick[p] = eq.curTick();
                                     ++done;
                                 });
        }
        armSampler();
        eq.run();

        if (infraAborted) {
            for (auto &p : procs)
                p->hardStop();
            accumulate(aggScratch);
            return {eq.curTick() - phase_start, false};
        }

        if (specAborted) {
            for (auto &p : procs)
                p->hardStop();
            Tick fail_tick = spec->failure().tick;
            accumulate(aggScratch);
            return {fail_tick - phase_start, false};
        }

        SPECRT_ASSERT(done == n_procs,
                      "loop phase wedged: %d of %d processors done",
                      done, n_procs);

        if (n_procs > 1) {
            Tick end =
                *std::max_element(done_tick.begin(), done_tick.end());
            for (int p = 0; p < n_procs; ++p) {
                double sy = static_cast<double>(end - done_tick[p]) +
                            static_cast<double>(cfg.barrierCycles);
                procs[p]->addSyncCycles(sy);
                stall::charge(p, stall::Cause::Barrier, sy);
            }
            // Advance the time base past the barrier episode (the
            // queue may already have drained trailing acks beyond
            // it).
            eq.schedule(std::max(eq.curTick(),
                                 end + cfg.barrierCycles),
                        []() {});
            armSampler();
            eq.run();
        }
    }
    accumulate(aggScratch);
    return {eq.curTick() - phase_start, true};
}

Tick
LoopExecutor::runProgramPhase(
    const std::vector<SegmentList> &segments,
    const std::vector<std::vector<ArrayBinding>> &bindings)
{
    EventQueue &eq = dsm->eventQueue();
    Tick start = eq.curTick();
    int n_procs = static_cast<int>(segments.size());
    resetProcStats();

    // Where each processor is in its segment list. A segment's first
    // call generates one element; its ops per element size the calls
    // after it.
    struct Cursor
    {
        size_t seg = 0;
        uint64_t next = 0;
        bool open = false;
        uint64_t opsPerElem = 1;
    };
    std::vector<Cursor> cursors(n_procs);
    auto next_chunk = [&segments, &cursors](int p, IterProgram &out) {
        const SegmentList &segs = segments[p];
        Cursor &c = cursors[p];
        while (c.seg < segs.size() && out.size() < chunkOps) {
            const ProgramSegment &sg = segs[c.seg];
            bool first = !c.open;
            uint64_t lo = first ? sg.lo : c.next;
            uint64_t n = first ? 1
                               : std::max<uint64_t>(
                                     1, (chunkOps - out.size()) /
                                            c.opsPerElem);
            uint64_t hi = std::min(sg.hi, lo + n);
            size_t before = out.size();
            sg.gen(out, lo, hi, first, hi == sg.hi);
            if (hi > lo)
                c.opsPerElem = std::max<uint64_t>(
                    1, (out.size() - before) / (hi - lo));
            c.next = hi;
            c.open = hi < sg.hi;
            if (!c.open)
                ++c.seg;
        }
    };

    OneShotSource source(n_procs);
    // Each processor's program arrives chunk by chunk through its
    // refill, the first chunk included.
    Processor::IterGen gen = [](IterNum, IterProgram &) {};

    int done = 0;
    std::vector<Tick> done_tick(n_procs, 0);
    for (int p = 0; p < n_procs; ++p) {
        procs[p]->setBindings(&bindings.at(p));
        procs[p]->startPhase(
            &source, gen, false,
            [&, p](NodeId) {
                done_tick[p] = eq.curTick();
                ++done;
            },
            [&next_chunk, p](IterProgram &out) { next_chunk(p, out); });
    }
    armSampler();
    eq.run();
    SPECRT_ASSERT(done == n_procs, "program phase wedged");

    Tick end = *std::max_element(done_tick.begin(), done_tick.end());
    Tick dur = end - start;
    if (n_procs > 1) {
        for (int p = 0; p < n_procs; ++p) {
            double sy = static_cast<double>(end - done_tick[p]) +
                        static_cast<double>(cfg.barrierCycles);
            procs[p]->addSyncCycles(sy);
            stall::charge(p, stall::Cause::Barrier, sy);
        }
        dur += cfg.barrierCycles;
    }
    accumulate(aggScratch);
    return dur;
}

Tick
LoopExecutor::runBackupPhase(bool restore_direction)
{
    // Binding layout: 2k = shared array, 2k+1 = backup of array k
    // (only arrays that need backup participate).
    std::vector<const ArraySetup *> backed;
    for (const ArraySetup &s : setups) {
        if (s.needsBackup)
            backed.push_back(&s);
    }
    if (backed.empty())
        return 0;

    int n_procs = activeProcs();
    std::vector<ArrayBinding> table;
    for (const ArraySetup *s : backed) {
        table.push_back({s->shared, false, -1});
        table.push_back({s->backup, false, -1});
    }
    std::vector<std::vector<ArrayBinding>> bindings(n_procs, table);

    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (size_t k = 0; k < backed.size(); ++k) {
            auto [lo, hi] = sliceOf(backed[k]->decl.elems, n_procs, p);
            int shared_id = static_cast<int>(2 * k);
            int backup_id = shared_id + 1;
            int src = restore_direction ? backup_id : shared_id;
            int dst = restore_direction ? shared_id : backup_id;
            segments[p].push_back(
                {lo, hi,
                 [src, dst](IterProgram &out, uint64_t a, uint64_t b,
                            bool, bool) {
                     genCopyProgram(src, dst, a, b, out);
                 }});
        }
    }
    return runProgramPhase(segments, bindings);
}

Tick
LoopExecutor::runZeroOutPhase()
{
    // Each processor zeroes its own private shadows.
    if (std::none_of(setups.begin(), setups.end(),
                     [](const ArraySetup &s) { return s.shadowed(); }))
        return 0;

    int n_procs = activeProcs();
    std::vector<std::vector<ArrayBinding>> bindings(n_procs);
    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (const ArraySetup &s : setups) {
            if (!s.shadowed())
                continue;
            std::vector<int> ids;
            auto push = [&](const Region *r) {
                ids.push_back(static_cast<int>(bindings[p].size()));
                bindings[p].push_back({r, false, -1});
            };
            push(s.shAw[p]);
            push(s.shAr[p]);
            if (s.privatized)
                push(s.shAnp[p]);
            if (!s.shAwmin.empty())
                push(s.shAwmin[p]);
            // All shadows of one array share an element count; zero
            // each array's shadows over its own range.
            segments[p].push_back(
                {0, s.shAw[p]->numElems(),
                 [ids = std::move(ids)](IterProgram &out, uint64_t a,
                                        uint64_t b, bool first, bool) {
                     lrpdGenZeroOut(out, ids, a, b, first);
                 }});
        }
    }
    return runProgramPhase(segments, bindings);
}

Tick
LoopExecutor::runMergePhase()
{
    int n_procs = activeProcs();
    // One binding table shared by all processors: every private
    // shadow of every processor, then the globals.
    std::vector<ArrayBinding> table;
    struct Kinds
    {
        const ArraySetup *s;
        std::vector<MergeKind> kinds;
    };
    std::vector<Kinds> all;

    for (const ArraySetup &s : setups) {
        if (!s.shadowed())
            continue;
        Kinds k;
        k.s = &s;
        auto add_kind = [&](const std::vector<const Region *> &per_proc,
                            const Region *global) {
            MergeKind mk;
            for (int p = 0; p < n_procs; ++p) {
                mk.perProcIds.push_back(
                    static_cast<int>(table.size()));
                table.push_back({per_proc[p], false, -1});
            }
            mk.globalId = static_cast<int>(table.size());
            table.push_back({global, false, -1});
            k.kinds.push_back(mk);
        };
        add_kind(s.shAw, s.glAw);
        add_kind(s.shAr, s.glAr);
        if (s.privatized)
            add_kind(s.shAnp, s.glAnp);
        if (!s.shAwmin.empty())
            add_kind(s.shAwmin, s.glAwmin);
        all.push_back(std::move(k));
    }
    if (all.empty())
        return 0;

    std::vector<std::vector<ArrayBinding>> bindings(n_procs, table);
    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (const Kinds &k : all) {
            auto [lo, hi] =
                sliceOf(k.s->glAw->numElems(), n_procs, p);
            segments[p].push_back(
                {lo, hi,
                 [&kinds = k.kinds](IterProgram &out, uint64_t a,
                                    uint64_t b, bool, bool) {
                     lrpdGenMerge(out, kinds, a, b);
                 }});
        }
    }
    return runProgramPhase(segments, bindings);
}

Tick
LoopExecutor::runAnalysisPhase()
{
    int n_procs = activeProcs();
    std::vector<ArrayBinding> table;
    struct Entry
    {
        const ArraySetup *s;
        std::vector<int> ids;
    };
    std::vector<Entry> all;

    for (const ArraySetup &s : setups) {
        if (!s.shadowed())
            continue;
        Entry e;
        e.s = &s;
        auto push = [&](const Region *r) {
            e.ids.push_back(static_cast<int>(table.size()));
            table.push_back({r, false, -1});
        };
        push(s.glAw);
        push(s.glAr);
        if (s.privatized)
            push(s.glAnp);
        if (s.glAwmin)
            push(s.glAwmin);
        all.push_back(std::move(e));
    }
    if (all.empty())
        return 0;

    std::vector<std::vector<ArrayBinding>> bindings(n_procs, table);
    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (const Entry &e : all) {
            auto [lo, hi] =
                sliceOf(e.s->glAw->numElems(), n_procs, p);
            segments[p].push_back(
                {lo, hi,
                 [&ids = e.ids](IterProgram &out, uint64_t a,
                                uint64_t b, bool, bool last) {
                     lrpdGenAnalysis(out, ids, a, b, last);
                 }});
        }
    }
    return runProgramPhase(segments, bindings);
}

Tick
LoopExecutor::runCopyOutPhase()
{
    // Winners: for each privatized live-out array, the processor
    // whose write to an element had the highest iteration copies it
    // out (the software knows this from the Aw shadows / the
    // hardware from its PMaxW state; record() kept it per element
    // while the loop ran).
    std::vector<const ArraySetup *> live;
    for (const ArraySetup &s : setups) {
        if (s.copiesOut())
            live.push_back(&s);
    }
    if (live.empty())
        return 0;

    int n_procs = activeProcs();
    std::vector<std::vector<ArrayBinding>> bindings(n_procs);
    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (const ArraySetup *s : live) {
            int priv_id = static_cast<int>(bindings[p].size());
            bindings[p].push_back({s->privCopies[p], false, -1});
            int shared_id = priv_id + 1;
            bindings[p].push_back({s->shared, false, -1});
            segments[p].push_back(
                {0, s->decl.elems,
                 [&last = s->lastWriter, p, priv_id, shared_id](
                     IterProgram &out, uint64_t a, uint64_t b, bool,
                     bool) {
                     for (uint64_t e = a; e < b; ++e) {
                         if (last[e].iter != 0 && last[e].proc == p)
                             genCopyProgram(priv_id, shared_id, e, e + 1,
                                            out);
                     }
                 }});
        }
    }
    return runProgramPhase(segments, bindings);
}

Tick
LoopExecutor::runReductionPhase()
{
    // Merge the per-processor partial accumulators into the shared
    // arrays: shared(e) op= sum of partials(e). Element-partitioned,
    // real loads/stores (like the copy-out phase).
    std::vector<const ArraySetup *> red;
    for (const ArraySetup &s : setups) {
        if (s.effTest == TestType::Reduction && s.privatized)
            red.push_back(&s);
    }
    if (red.empty())
        return 0;

    int n_procs = activeProcs();
    std::vector<ArrayBinding> table;
    struct Layout
    {
        const ArraySetup *s;
        int sharedId;
        std::vector<int> partialIds;
    };
    std::vector<Layout> layouts;
    for (const ArraySetup *s : red) {
        Layout l;
        l.s = s;
        l.sharedId = static_cast<int>(table.size());
        table.push_back({s->shared, false, -1, false});
        for (int p = 0; p < n_procs; ++p) {
            l.partialIds.push_back(static_cast<int>(table.size()));
            table.push_back({s->privCopies[p], false, -1, false});
        }
        layouts.push_back(std::move(l));
    }

    std::vector<std::vector<ArrayBinding>> bindings(n_procs, table);
    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (const Layout &l : layouts) {
            auto [lo, hi] = sliceOf(l.s->decl.elems, n_procs, p);
            segments[p].push_back(
                {lo, hi,
                 [&l](IterProgram &out, uint64_t a, uint64_t b, bool,
                      bool) {
                     for (uint64_t e = a; e < b; ++e) {
                         auto idx = IndexOperand::immediate(
                             static_cast<int64_t>(e));
                         out.push_back(opLoad(1, l.sharedId, idx));
                         for (int id : l.partialIds) {
                             out.push_back(opLoad(2, id, idx));
                             out.push_back(opAlu(1, AluOp::Add, 1, 2));
                         }
                         out.push_back(opStore(l.sharedId, idx, 1));
                     }
                 }});
        }
    }
    return runProgramPhase(segments, bindings);
}

Tick
LoopExecutor::runSerialPhase()
{
    // Serial re-execution on processor 0, arrays in shared form.
    std::vector<ArrayBinding> table;
    for (const ArraySetup &s : setups)
        table.push_back({s.shared, false, -1});
    std::vector<std::vector<ArrayBinding>> bindings(1, table);

    EventQueue &eq = dsm->eventQueue();
    Tick start = eq.curTick();
    resetProcStats();

    StaticChunkSource source(numIters(), 1);
    Processor::IterGen gen = [this](IterNum i, IterProgram &out) {
        w.genIteration(i, out);
    };

    bool finished = false;
    procs[0]->setBindings(&bindings[0]);
    procs[0]->startPhase(&source, gen, false,
                         [&finished](NodeId) { finished = true; });
    armSampler();
    eq.run();
    SPECRT_ASSERT(finished, "serial phase wedged");
    accumulate(aggScratch);
    return eq.curTick() - start;
}

void
LoopExecutor::initSampler()
{
    if (!timeline::enabled())
        return;
    tlSampler =
        std::make_unique<timeline::RunSampler>(dsm->eventQueue());

    // Live gauges: instantaneous machine state at each sampling
    // point. The lambdas capture raw pointers into the executor's
    // machine, which outlives the sampler (member order).
    Network *net = &dsm->network();
    tlSampler->addGauge("net.in_flight", [net]() {
        return static_cast<double>(net->numInFlight());
    });
    // Watchdog retransmits otherwise tick invisibly: a run stuck in
    // retry/backoff shows empty in_flight windows with no cause.
    tlSampler->addGauge("net.retries_pending", [net]() {
        return static_cast<double>(net->numPendingRetransmits());
    });
    DsmSystem *d = dsm.get();
    int n = d->numProcs();
    tlSampler->addGauge("dir.active_txns", [d, n]() {
        size_t sum = 0;
        for (int i = 0; i < n; ++i)
            sum += d->dirCtrl(i).numActiveTxns();
        return static_cast<double>(sum);
    });
    tlSampler->addGauge("dir.queued_reqs", [d, n]() {
        size_t sum = 0;
        for (int i = 0; i < n; ++i)
            sum += d->dirCtrl(i).numQueuedReqs();
        return static_cast<double>(sum);
    });
    tlSampler->addGauge("dir.max_queue", [d, n]() {
        size_t mx = 0;
        for (int i = 0; i < n; ++i)
            mx = std::max(mx, d->dirCtrl(i).numQueuedReqs());
        return static_cast<double>(mx);
    });
    auto *pv = &procs;
    tlSampler->addGauge("spec.outstanding_iters", [pv]() {
        uint64_t sum = 0;
        for (const auto &p : *pv)
            sum += p->outstandingIters();
        return static_cast<double>(sum);
    });

    // Per-interval deltas of the machine's stat tree (network,
    // caches, directories) and, in HW mode, the spec hardware's.
    tlSampler->addStatDelta(*dsm);
    if (spec)
        tlSampler->addStatDelta(*spec);
    // With the profiler on, the timeline gains delta.stall.* series
    // for free (the PR-5 delta machinery).
    if (stallEng)
        tlSampler->addStatDelta(*stallEng);
}

RunResult
LoopExecutor::run()
{
    setup();
    // Protocol tracing: the config knob wins, the environment
    // (SPECRT_TRACE) can switch it on for any driver that never
    // touches cfg.trace. Neither affects modeled timing. The metric
    // timeline follows the same contract (SPECRT_TIMELINE), as does
    // the critical-path profiler (SPECRT_CRITPATH).
    trace::applyConfig(cfg.trace);
    trace::maybeEnableFromEnv();
    timeline::applyConfig(cfg.timeline);
    timeline::maybeEnableFromEnv();
    critpath::applyConfig(cfg.critpath);
    critpath::maybeEnableFromEnv();
    obs::maybeEnableFromEnv();
    {
        // Publish the machine fingerprint so campaign outcomes can
        // name the exact config a failed job ran (replayability).
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64,
                      cfg.fingerprint());
        SimContext::current().configFingerprint = fp;
    }
    if (stallEng && stall::current() == stallEng.get())
        stall::install(nullptr);
    stallEng.reset();
    if (critpath::enabled()) {
        stallEng = std::make_unique<stall::Engine>(cfg.numProcs);
        stallEng->attachRecorder(&critpath::current());
        stall::install(stallEng.get());
    }
    initSampler();
    beginTraceLoop(dsm->eventQueue().curTick(), execModeName(xc.mode),
                   numIters());
    obs::runBegin(dsm->eventQueue().curTick(), execModeName(xc.mode),
                  numIters(), cfg.numProcs);

    RunResult res;
    res.mode = xc.mode;
    aggScratch = BreakdownAgg{};

    // Fill res.cost from the engine and feed the run's totals to the
    // critical-path recorder (once every phase has been settled).
    auto fill_cost = [this](RunResult &r) {
        if (!stallEng)
            return;
        r.cost.valid = true;
        r.cost.numProcs = cfg.numProcs;
        r.cost.perNodeTicks = static_cast<double>(r.totalTicks);
        for (int n = 0; n < cfg.numProcs; ++n)
            r.cost.busy += stallEng->busyOf(n);
        for (size_t c = 0; c < stall::numCauses; ++c)
            r.cost.stalls[c] =
                stallEng->causeTotal(static_cast<stall::Cause>(c));
        if (critpath::enabled())
            critpath::current().addRunTotals(
                r.cost.busy, r.cost.stalls, r.cost.perNodeTicks,
                cfg.numProcs);
    };

    bool is_sw = xc.mode == ExecMode::SW;
    bool is_hw = xc.mode == ExecMode::HW;

    if (is_sw) {
        res.phases.zeroOut = runZeroOutPhase();
        settleStall(res.phases.zeroOut, stall::Cause::CommitSerial);
    }
    if (is_sw || is_hw) {
        res.phases.backup = runBackupPhase(false);
        settleStall(res.phases.backup, stall::Cause::CommitSerial);
        traceMark(trace::TraceOp::Checkpoint,
                  dsm->eventQueue().curTick(), "backup of shared arrays");
        obs::checkpointMark(dsm->eventQueue().curTick(),
                            "backup of shared arrays");
        if (res.phases.backup > 0)
            dsm->resetMachine(true); // commit backup; cold caches for
                                     // the loop, as the paper does
    }

    if (is_hw)
        spec->arm();

    auto [loop_ticks, completed] = runLoopPhase();
    res.phases.loop = loop_ticks;
    settleStall(res.phases.loop, stall::Cause::Other);
    for (auto &p : procs)
        res.itersExecuted += p->itersExecuted();

    if (infraAborted) {
        // Fault injection defeated the retry machinery: the run
        // produced nothing usable. Discard the machine state and
        // report; runWithDegradation retries or degrades.
        res.infraFailed = true;
        res.infraReason = infraAbortReason;
        res.passed = false;
        res.invariantViolations += deliveryViolations;
        if (is_hw)
            spec->disarm();
        finishSampler();
        dsm->resetMachine(false);
        res.totalTicks = res.phases.total();
        res.agg = aggScratch;
        res.eventsFired = dsm->eventQueue().numFiredTotal();
        fill_cost(res);
        traceMark(trace::TraceOp::LoopEnd, dsm->eventQueue().curTick(),
                  "infra abort");
        obs::runEnd(dsm->eventQueue().curTick(), execModeName(xc.mode),
                    false, true, res.totalTicks, res.itersExecuted);
        return res;
    }

    if (checker && completed)
        res.invariantViolations += checker->checkAll();

    bool failed = false;
    if (is_hw) {
        res.hwFailure = spec->failure();
        failed = res.hwFailure.failed;
        if (failed)
            dsm->resetMachine(false); // discard speculative state
        spec->disarm();
    } else {
        SPECRT_ASSERT(completed, "non-HW loop phase aborted");
    }

    if (is_sw) {
        res.phases.merge = runMergePhase();
        settleStall(res.phases.merge, stall::Cause::CommitSerial);
        res.phases.analysis = runAnalysisPhase();
        settleStall(res.phases.analysis, stall::Cause::CommitSerial);
        for (const ArraySetup &s : setups) {
            if (s.effTest == TestType::Reduction) {
                // The software reduction test: the array may only be
                // touched from the reduction statement.
                failed |= s.untaggedAccess;
                continue;
            }
            if (!s.lrpd)
                continue;
            LrpdAnalysis a = s.lrpd->analyze();
            bool ok = a.verdict == LrpdVerdict::Doall ||
                      (a.verdict == LrpdVerdict::DoallWithPriv &&
                       s.privatized);
            failed |= !ok;
            res.swAnalyses[s.declIdx] = a;
        }
    }

    res.passed = !failed;
    if (failed) {
        if (is_sw) {
            traceMark(trace::TraceOp::Abort,
                      dsm->eventQueue().curTick(),
                      "software LRPD test failed");
            obs::swAbort(dsm->eventQueue().curTick(),
                         "software LRPD test failed");
        }
        res.phases.restore = runBackupPhase(true);
        settleStall(res.phases.restore, stall::Cause::AbortRedo);
        res.phases.serial = runSerialPhase();
        settleStall(res.phases.serial, stall::Cause::AbortRedo);
    } else {
        if (is_sw || is_hw) {
            traceMark(trace::TraceOp::Commit,
                      dsm->eventQueue().curTick(),
                      "speculative state committed");
            obs::commitMark(dsm->eventQueue().curTick());
        }
        if (is_sw || is_hw) {
            res.phases.copyOut = runCopyOutPhase();
            settleStall(res.phases.copyOut,
                        stall::Cause::CommitSerial);
        }
        if (xc.mode != ExecMode::Serial) {
            res.phases.reduction = runReductionPhase();
            settleStall(res.phases.reduction,
                        stall::Cause::CommitSerial);
        }
    }

    if (checker)
        res.invariantViolations += checker->checkAll();
    res.invariantViolations += deliveryViolations;

    // Final sample before the commit reset wipes the gauges' state.
    finishSampler();

    // Commit all cached state so the backing store holds the final
    // values (verification reads them there).
    dsm->resetMachine(true);

    res.totalTicks = res.phases.total();
    res.agg = aggScratch;
    res.eventsFired = dsm->eventQueue().numFiredTotal();
    fill_cost(res);
    traceMark(trace::TraceOp::LoopEnd, dsm->eventQueue().curTick(),
              res.passed ? "passed" : "failed");
    obs::runEnd(dsm->eventQueue().curTick(), execModeName(xc.mode),
                res.passed, false, res.totalTicks, res.itersExecuted);
    if (xc.keepTrace)
        res.trace = std::move(trace);
    return res;
}

LadderOutcome
runWithDegradation(const MachineConfig &config, Workload &w,
                   ExecConfig xc, const DegradationPolicy &policy,
                   DegradationLog *log)
{
    LadderOutcome out;
    MachineConfig cfg = config;

    auto attempt = [&](ExecMode mode) {
        xc.mode = mode;
        out.exec = std::make_unique<LoopExecutor>(cfg, w, xc);
        out.result = out.exec->run();
        out.steps.push_back({mode, out.result.infraFailed,
                             out.result.passed,
                             out.result.infraReason});
        return !out.result.infraFailed;
    };

    ExecMode mode = xc.mode;
    while (true) {
        int attempts = 1;
        if (mode == ExecMode::HW)
            attempts = std::max(1, policy.maxHwAttempts);
        else if (mode != ExecMode::Serial)
            attempts = std::max(1, policy.maxSwAttempts);
        if (mode == ExecMode::Serial)
            cfg.fault = FaultConfig{}; // the floor runs fault-free

        for (int i = 0; i < attempts; ++i) {
            if (!out.steps.empty() && policy.reseedPerAttempt)
                cfg.fault.seed += 0x9e3779b97f4a7c15ULL;
            if (attempt(mode))
                return out;
        }

        SPECRT_ASSERT(mode != ExecMode::Serial,
                      "fault-free serial floor infra-failed");
        ExecMode to =
            mode == ExecMode::HW ? ExecMode::SW : ExecMode::Serial;
        ++out.degradations;
        if (log)
            log->record(mode, to, out.result.infraReason);
        obs::degrade(execModeName(mode), execModeName(to),
                     out.result.infraReason);
        mode = to;
    }
}

} // namespace specrt
