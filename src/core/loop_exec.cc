#include "core/loop_exec.hh"

#include <algorithm>
#include <cinttypes>

#include "obs/sinks.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace specrt
{

namespace
{

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
            s.shadows = {{&ShadowIds::aw, "w", {}, nullptr},
                         {&ShadowIds::ar, "r", {}, nullptr}};
            if (s.privatized)
                s.shadows.push_back({&ShadowIds::anp, "np", {}, nullptr});
            if (xc.swReadIn && !pw && s.privatized)
                s.shadows.push_back(
                    {&ShadowIds::awmin, "wm", {}, nullptr});
            // Each processor's shadows, then the globals: addresses
            // decide homes and cache sets.
            for (int p = 0; p < activeProcs(); ++p) {
                for (auto &sh : s.shadows)
                    sh.perProc.push_back(sh_alloc(
                        std::string("_sh") + sh.name + std::to_string(p),
                        Placement::Fixed, p));
            }
            for (auto &sh : s.shadows)
                sh.global = sh_alloc(std::string("_gl") + sh.name,
                                     Placement::RoundRobin, 0);
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
        int next = static_cast<int>(loopBindings[0].size());
        for (const auto &sh : s.shadows)
            info.shadows.*sh.kind = next++;
        instrMap[s.declIdx] = info;

        for (int p = 0; p < cfg.numProcs; ++p) {
            int q = std::min(p, activeProcs() - 1);
            for (const auto &sh : s.shadows)
                loopBindings[p].push_back({sh.perProc[q], false, -1});
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

    if (spec) {
        spec->setAbortHook([this]() {
            specAborted = true;
            dsm->eventQueue().stop();
        });
        // The tagged-access check for reduction arrays fails the
        // speculation like any coherence-detected dependence.
        for (auto &p : procs) {
            p->setViolationHook([this](NodeId n, Addr a, IterNum i) {
                spec->fail(n, a, i,
                           "non-reduction access to an array under "
                           "the reduction test");
            });
        }
    }
}

bool
LoopExecutor::runProcs(
    int n, const std::function<void(int, Processor::DoneCb)> &start)
{
    EventQueue &eq = dsm->eventQueue();
    // Only an abort inside this phase counts: the restore and the
    // serial re-execution run on after the one that ended the loop.
    specAborted = false;
    int finished = 0;
    std::vector<Tick> done(n);
    for (int p = 0; p < n; ++p)
        start(p, [&, p](NodeId) {
            done[p] = eq.curTick();
            ++finished;
        });
    eq.run();

    if (specAborted || infraAborted) {
        for (auto &p : procs)
            p->hardStop();
        return false;
    }
    SPECRT_ASSERT(finished == n, "phase wedged: %d of %d processors done",
                  finished, n);

    if (n > 1) {
        Tick end = *std::max_element(done.begin(), done.end());
        stall::Engine *eng = stall::active();
        for (int p = 0; p < n; ++p) {
            double sy = static_cast<double>(end - done[p]) +
                        static_cast<double>(cfg.barrierCycles);
            procs[p]->addSyncCycles(sy);
            if (eng)
                eng->charge(p, stall::Cause::Barrier, sy);
        }
        // Advance the clock past the barrier episode (the queue may
        // already have drained trailing acks beyond it).
        eq.schedule(std::max(eq.curTick(), end + cfg.barrierCycles),
                    []() {});
        eq.run();
    }
    return true;
}

void
LoopExecutor::beginPhase()
{
    phaseStart = dsm->eventQueue().curTick();
    for (auto &p : procs)
        p->resetPhaseStats();
}

Tick
LoopExecutor::endPhase(Tick end, stall::Cause residual)
{
    std::vector<double> busy(procs.size());
    for (size_t p = 0; p < procs.size(); ++p) {
        busy[p] = procs[p]->busyCycles();
        aggScratch.busy += busy[p];
        aggScratch.sync += procs[p]->syncCycles();
        aggScratch.mem += procs[p]->memCycles();
    }
    Tick dur = end - phaseStart;
    if (stall::Engine *eng = stall::active())
        eng->settlePhase(static_cast<double>(dur), busy, residual);
    return dur;
}

std::pair<Tick, bool>
LoopExecutor::runLoopPhase()
{
    EventQueue &eq = dsm->eventQueue();
    int n_procs = activeProcs();
    beginPhase();

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
        bool ok = runProcs(n_procs, [&](int p, Processor::DoneCb done) {
            procs[p]->setBindings(&loopBindings[p]);
            procs[p]->startPhase(&shifted, gen, drain, std::move(done));
        });
        if (!ok) {
            // An HW abort ends the phase at the failing access, an
            // infrastructure abort where it stopped the queue.
            Tick end =
                infraAborted ? eq.curTick() : spec->failure().tick;
            return {endPhase(end, stall::Cause::Other), false};
        }
    }
    return {endPhase(eq.curTick(), stall::Cause::Other), true};
}

Tick
LoopExecutor::runProgramPhase(
    const std::vector<SegmentList> &segments,
    const std::vector<std::vector<ArrayBinding>> &bindings,
    stall::Cause residual)
{
    int n_procs = static_cast<int>(segments.size());
    beginPhase();

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

    bool ok = runProcs(n_procs, [&](int p, Processor::DoneCb done) {
        procs[p]->setBindings(&bindings.at(p));
        procs[p]->startPhase(
            &source, gen, false, std::move(done),
            [&next_chunk, p](IterProgram &out) { next_chunk(p, out); });
    });
    // Nothing speculates here; the watchdog can still give up on a
    // miss, and run() then ends the run where this phase stopped.
    SPECRT_ASSERT(ok || infraAborted, "utility phase aborted");
    return endPhase(dsm->eventQueue().curTick(), residual);
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
    return runProgramPhase(segments, bindings,
                           restore_direction
                               ? stall::Cause::AbortRedo
                               : stall::Cause::CommitSerial);
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
            for (const auto &sh : s.shadows) {
                ids.push_back(static_cast<int>(bindings[p].size()));
                bindings[p].push_back({sh.perProc[p], false, -1});
            }
            // All shadows of one array share an element count; zero
            // each array's shadows over its own range.
            segments[p].push_back(
                {0, s.shadows[0].perProc[p]->numElems(),
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
        for (const auto &sh : s.shadows) {
            MergeKind mk;
            for (int p = 0; p < n_procs; ++p) {
                mk.perProcIds.push_back(
                    static_cast<int>(table.size()));
                table.push_back({sh.perProc[p], false, -1});
            }
            mk.globalId = static_cast<int>(table.size());
            table.push_back({sh.global, false, -1});
            k.kinds.push_back(mk);
        }
        all.push_back(std::move(k));
    }
    if (all.empty())
        return 0;

    std::vector<std::vector<ArrayBinding>> bindings(n_procs, table);
    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (const Kinds &k : all) {
            auto [lo, hi] = sliceOf(
                k.s->shadows[0].global->numElems(), n_procs, p);
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
        for (const auto &sh : s.shadows) {
            e.ids.push_back(static_cast<int>(table.size()));
            table.push_back({sh.global, false, -1});
        }
        all.push_back(std::move(e));
    }
    if (all.empty())
        return 0;

    std::vector<std::vector<ArrayBinding>> bindings(n_procs, table);
    std::vector<SegmentList> segments(n_procs);
    for (int p = 0; p < n_procs; ++p) {
        for (const Entry &e : all) {
            auto [lo, hi] = sliceOf(
                e.s->shadows[0].global->numElems(), n_procs, p);
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
    beginPhase();
    StaticChunkSource source(numIters(), 1);
    Processor::IterGen gen = [this](IterNum i, IterProgram &out) {
        w.genIteration(i, out);
    };
    bool ok = runProcs(1, [&](int, Processor::DoneCb done) {
        procs[0]->setBindings(&table);
        procs[0]->startPhase(&source, gen, false, std::move(done));
    });
    SPECRT_ASSERT(ok || infraAborted, "serial phase aborted");
    return endPhase(dsm->eventQueue().curTick(),
                    stall::Cause::AbortRedo);
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
    // With the critpath sink on, the timeline gains delta.stall.*
    // series from the run's engine.
    if (stall::Engine *eng = stall::active())
        tlSampler->addStatDelta(*eng);
}

RunResult
LoopExecutor::run()
{
    setup();
    // SPECRT_OBS can switch sinks on for any driver that never sets
    // them up itself; no sink affects modeled timing.
    obs::applyEnv();
    {
        // Publish the machine fingerprint so campaign outcomes can
        // name the exact config a failed job ran (replayability).
        char fp[32];
        std::snprintf(fp, sizeof(fp), "%016" PRIx64,
                      cfg.fingerprint());
        SimContext::current().configFingerprint = fp;
    }
    // The critpath sink owns the run's stall engine; hook sites reach
    // it through stall::active(), and endRun() fills res.cost.
    if (critpath::enabled())
        critpath::current().beginRun(cfg.numProcs);
    initSampler();
    obs::runBegin(dsm->eventQueue().curTick(), execModeName(xc.mode),
                  numIters(), cfg.numProcs);

    RunResult res;
    res.mode = xc.mode;
    aggScratch = BreakdownAgg{};

    if (!runPhases(res)) {
        // The retry machinery gave up on a transaction: the run
        // produced nothing usable. Discard the machine state and
        // report; runWithDegradation retries or degrades.
        res.infraFailed = true;
        res.infraReason = infraAbortReason;
        res.passed = false;
        if (spec)
            spec->disarm();
        finishRun(res, false);
        return res;
    }

    if (checker)
        res.invariantViolations += checker->checkAll();
    // Commit all cached state so the backing store holds the final
    // values (verification reads them there).
    finishRun(res, true);
    if (xc.keepTrace)
        res.trace = std::move(trace);
    return res;
}

bool
LoopExecutor::runPhases(RunResult &res)
{
    bool is_sw = xc.mode == ExecMode::SW;
    bool is_hw = xc.mode == ExecMode::HW;
    // Store a phase's length; false if an infrastructure abort
    // stopped it. The watchdog guards every miss, so any phase can.
    auto ran = [this](Tick &len, Tick ticks) {
        len = ticks;
        return !infraAborted;
    };

    if (is_sw && !ran(res.phases.zeroOut, runZeroOutPhase()))
        return false;
    if (is_sw || is_hw) {
        if (!ran(res.phases.backup, runBackupPhase(false)))
            return false;
        obs::checkpointMark(dsm->eventQueue().curTick(),
                            "backup of shared arrays");
        if (res.phases.backup > 0)
            dsm->resetMachine(true); // commit backup; cold caches for
                                     // the loop, as the paper does
    }

    if (is_hw)
        spec->arm();

    auto [loop_ticks, completed] = runLoopPhase();
    for (auto &p : procs)
        res.itersExecuted += p->itersExecuted();
    if (!ran(res.phases.loop, loop_ticks))
        return false;

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
        if (!ran(res.phases.merge, runMergePhase()) ||
            !ran(res.phases.analysis, runAnalysisPhase()))
            return false;
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
        if (is_sw)
            obs::swAbort(dsm->eventQueue().curTick(),
                         "software LRPD test failed");
        return ran(res.phases.restore, runBackupPhase(true)) &&
               ran(res.phases.serial, runSerialPhase());
    }
    if (is_sw || is_hw) {
        obs::commitMark(dsm->eventQueue().curTick());
        if (!ran(res.phases.copyOut, runCopyOutPhase()))
            return false;
    }
    return xc.mode == ExecMode::Serial ||
           ran(res.phases.reduction, runReductionPhase());
}

void
LoopExecutor::finishRun(RunResult &res, bool commit)
{
    res.invariantViolations += deliveryViolations;
    // Final sample before the reset wipes the gauges' state.
    if (tlSampler)
        tlSampler->finish();
    dsm->resetMachine(commit);

    res.totalTicks = res.phases.total();
    res.agg = aggScratch;
    res.eventsFired = dsm->eventQueue().numFired();
    if (critpath::enabled())
        res.cost = critpath::current().endRun(res.totalTicks);
    obs::runEnd(dsm->eventQueue().curTick(), execModeName(xc.mode),
                res.passed, res.infraFailed, res.totalTicks,
                res.itersExecuted);
}

LadderOutcome
runWithDegradation(const MachineConfig &config, Workload &w,
                   ExecConfig xc)
{
    constexpr int hwAttempts = 2;
    constexpr int swAttempts = 1;

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
            attempts = hwAttempts;
        else if (mode != ExecMode::Serial)
            attempts = swAttempts;
        if (mode == ExecMode::Serial)
            cfg.fault = FaultConfig{}; // the floor runs fault-free

        for (int i = 0; i < attempts; ++i) {
            if (!out.steps.empty())
                cfg.fault.seed += 0x9e3779b97f4a7c15ULL;
            if (attempt(mode))
                return out;
        }

        SPECRT_ASSERT(mode != ExecMode::Serial,
                      "fault-free serial floor infra-failed");
        ExecMode to =
            mode == ExecMode::HW ? ExecMode::SW : ExecMode::Serial;
        ++out.degradations;
        obs::degrade(execModeName(mode), execModeName(to),
                     out.result.infraReason);
        mode = to;
    }
}

} // namespace specrt
