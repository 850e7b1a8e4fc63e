#include "runtime/processor.hh"

#include "sim/logging.hh"
#include "sim/stall.hh"
#include "sim/trace.hh"

namespace specrt
{

namespace
{

/** Record an iteration boundary on @p node's track. */
void
traceIter(trace::TraceOp op, Tick tick, NodeId node, IterNum iter)
{
    trace::TraceRecord r;
    r.tick = tick;
    r.op = op;
    r.node = node;
    r.iter = iter;
    trace::buffer().emit(r);
}

} // namespace

Processor::Processor(NodeId node_, EventQueue &eq_, CacheCtrl &cache_,
                     const MachineConfig &config)
    : StatGroup("proc" + std::to_string(node_)),
      node(node_), eq(eq_), cache(cache_), cfg(config),
      busy(this, "busy_cycles", "cycles executing instructions"),
      sync(this, "sync_cycles", "cycles in scheduling/barriers"),
      mem(this, "mem_cycles", "cycles stalled on the memory system"),
      iters(this, "iterations", "iterations executed")
{
    cache.setSlotFreeNotice([this]() {
        if (!stalledOnWb)
            return;
        stalledOnWb = false;
        Op op = stalledOp;
        Tick start = stallStart;
        issueStore(op, start);
    });
}

void
Processor::resetPhaseStats()
{
    busy = 0;
    sync = 0;
    mem = 0;
    iters = 0;
}

void
Processor::startPhase(WorkSource *source_, IterGen gen_,
                      bool drain_per_iter, DoneCb done, Refill refill_)
{
    SPECRT_ASSERT(!active, "proc %d already running a phase", node);
    source = source_;
    gen = std::move(gen_);
    refill = std::move(refill_);
    doneCb = std::move(done);
    drainPerIter = drain_per_iter;
    active = true;
    stalledOnWb = false;
    fetchWork();
}

void
Processor::hardStop()
{
    active = false;
    source = nullptr;
    gen = nullptr;
    refill = nullptr;
    doneCb = nullptr;
    stalledOnWb = false;
    pc = 0;
    prog.clear();
}

void
Processor::fetchWork()
{
    if (!active)
        return;
    WorkSource::Grant grant = source->next(node, eq.curTick());
    if (grant.done) {
        // Drain the write buffer before declaring the phase done so
        // the machine can quiesce.
        Tick t0 = eq.curTick();
        cache.requestDrainNotice([this, t0]() {
            if (!active)
                return;
            double waited = static_cast<double>(eq.curTick() - t0);
            mem += waited;
            // Drain and write-buffer waits are memory service, like
            // a load miss.
            if (stall::Engine *e = stall::active())
                e->charge(node, stall::Cause::LoadMiss, waited);
            active = false;
            if (doneCb)
                doneCb(node);
        });
        return;
    }
    SPECRT_ASSERT(grant.lo < grant.hi, "empty work grant");
    curIter = grant.lo;
    chunkHi = grant.hi;
    if (grant.delay > 0) {
        // The work source already attributed this delay (SchedWait).
        sync += static_cast<double>(grant.delay);
        eq.scheduleIn(grant.delay, [this]() { beginIteration(); });
    } else {
        beginIteration();
    }
}

void
Processor::beginIteration()
{
    if (!active)
        return;
    if (trace::enabled())
        traceIter(trace::TraceOp::IterBegin, eq.curTick(), node,
                  curIter);
    prog.clear();
    gen(curIter, prog);
    pc = 0;
    for (int64_t &r : regs)
        r = 0;
    step();
}

void
Processor::finishIteration()
{
    if (!active)
        return;
    if (trace::enabled())
        traceIter(trace::TraceOp::IterEnd, eq.curTick(), node,
                  curIter);
    iters += 1;

    auto advance = [this]() {
        if (!active)
            return;
        ++curIter;
        if (curIter < chunkHi)
            beginIteration();
        else
            fetchWork();
    };

    if (drainPerIter) {
        Tick t0 = eq.curTick();
        cache.requestDrainNotice([this, t0, advance]() {
            if (!active)
                return;
            double waited = static_cast<double>(eq.curTick() - t0);
            mem += waited;
            if (stall::Engine *e = stall::active())
                e->charge(node, stall::Cause::LoadMiss, waited);
            advance();
        });
    } else {
        advance();
    }
}

void
Processor::execNonMem(const Op &op)
{
    switch (op.kind) {
      case OpKind::Imm:
        regs[op.dst] = op.imm;
        break;
      case OpKind::Alu:
        regs[op.dst] = evalAlu(op.alu, regs[op.srcA], regs[op.srcB]);
        break;
      case OpKind::Busy:
        break;
      default:
        panic("execNonMem on memory op");
    }
}

void
Processor::step()
{
    if (!active)
        return;
    Cycles acc = 0;
    while (true) {
        if (pc >= prog.size()) {
            // Next chunk: the cycles accumulated so far carry over,
            // so its first op runs when it would have unchunked.
            if (!refill)
                break;
            prog.clear();
            pc = 0;
            refill(prog);
            if (prog.empty())
                break;
        }
        const Op &op = prog[pc];
        if (op.kind == OpKind::Load || op.kind == OpKind::Store)
            break;
        execNonMem(op);
        acc += op.kind == OpKind::Busy
                   ? (op.cycles > 0 ? op.cycles : 1)
                   : 1;
        ++pc;
    }
    busy += static_cast<double>(acc);

    if (pc >= prog.size()) {
        if (acc > 0)
            eq.scheduleIn(acc, [this]() { finishIteration(); });
        else
            finishIteration();
        return;
    }

    const Op &op = prog[pc];
    ++pc;
    if (acc > 0) {
        // Capture the op's index, not the op: prog is stable until
        // beginIteration() or the next refill, neither of which can
        // run while this op is pending, and the small capture keeps
        // the callback inside the event slot's inline buffer (no
        // heap allocation).
        eq.scheduleIn(acc, [this, i = pc - 1]() {
            if (!active)
                return;
            const Op &o = prog[i];
            if (o.kind == OpKind::Load)
                issueLoad(o);
            else
                issueStore(o, eq.curTick());
        });
    } else {
        if (op.kind == OpKind::Load)
            issueLoad(op);
        else
            issueStore(op, eq.curTick());
    }
}

int64_t
Processor::indexValue(const IndexOperand &idx) const
{
    return idx.isReg ? regs[idx.reg] : idx.imm;
}

std::pair<Addr, uint64_t>
Processor::resolve(const Op &op) const
{
    SPECRT_ASSERT(bindings, "no array bindings at proc %d", node);
    SPECRT_ASSERT(op.arrayId >= 0 &&
                  op.arrayId < static_cast<int>(bindings->size()),
                  "bad arrayId %d", op.arrayId);
    const ArrayBinding &b = (*bindings)[op.arrayId];
    SPECRT_ASSERT(b.region, "unbound arrayId %d", op.arrayId);
    int64_t idx = indexValue(op.index);
    SPECRT_ASSERT(idx >= 0 &&
                  static_cast<uint64_t>(idx) < b.region->numElems(),
                  "index %lld out of bounds for region '%s' (%llu "
                  "elems)", (long long)idx, b.region->name.c_str(),
                  (unsigned long long)b.region->numElems());
    return {b.region->elemAddr(static_cast<uint64_t>(idx)),
            static_cast<uint64_t>(idx)};
}

void
Processor::issueLoad(const Op &op)
{
    auto [addr, elem] = resolve(op);
    const ArrayBinding &b = (*bindings)[op.arrayId];
    if (b.reductionOnly && !op.isReduction && violationHook)
        violationHook(node, addr, curIter);
    if (trace && b.traced)
        trace->record(node, curIter, b.traceArrayId, elem, false,
                      op.isReduction);

    Tick t0 = eq.curTick();
    int dst = op.dst;
    cache.load(addr, b.region->elemBytes, curIter,
               [this, t0, dst](uint64_t value) {
                   if (!active)
                       return;
                   busy += 1;
                   Tick latency = eq.curTick() - t0;
                   if (latency > 1) {
                       mem += static_cast<double>(latency - 1);
                       if (stall::Engine *e = stall::active())
                           e->loadWait(node,
                                       static_cast<double>(latency - 1),
                                       eq.curTick());
                   }
                   regs[dst] = static_cast<int64_t>(value);
                   step();
               });
}

void
Processor::issueStore(const Op &op, Tick stall_start)
{
    auto [addr, elem] = resolve(op);
    const ArrayBinding &b = (*bindings)[op.arrayId];

    bool accepted = cache.store(addr, b.region->elemBytes,
                                static_cast<uint64_t>(regs[op.srcA]),
                                curIter);
    if (!accepted) {
        stalledOnWb = true;
        stalledOp = op;
        stallStart = stall_start;
        return;
    }

    if (b.reductionOnly && !op.isReduction && violationHook)
        violationHook(node, addr, curIter);
    if (trace && b.traced)
        trace->record(node, curIter, b.traceArrayId, elem, true,
                      op.isReduction);

    busy += 1;
    Tick waited = eq.curTick() - stall_start;
    if (waited > 0) {
        mem += static_cast<double>(waited);
        if (stall::Engine *e = stall::active())
            e->charge(node, stall::Cause::LoadMiss,
                      static_cast<double>(waited));
    }
    eq.scheduleIn(1, [this]() { step(); });
}

} // namespace specrt
