#include "runtime/scheduler.hh"

#include <memory>

#include "sim/logging.hh"
#include "sim/stall.hh"
#include "sim/trace.hh"

namespace specrt
{

namespace
{

/** Record a work grant of iterations [lo, hi) to processor @p p. */
void
traceGrant(NodeId p, Tick now, IterNum lo, IterNum hi,
           const char *policy)
{
    if (!trace::enabled())
        return;
    trace::TraceRecord r;
    r.tick = now;
    r.op = trace::TraceOp::Grant;
    r.node = p;
    r.iter = lo;
    r.a = static_cast<uint64_t>(hi);
    r.label = policy;
    trace::buffer().emit(r);
}

} // namespace

const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::StaticChunk: return "static";
      case SchedPolicy::BlockCyclic: return "block-cyclic";
      case SchedPolicy::Dynamic:     return "dynamic";
    }
    return "unknown";
}

StaticChunkSource::StaticChunkSource(IterNum num_iters, int num_procs)
    : numIters(num_iters), numProcs(num_procs),
      handedOut(num_procs, false)
{
    SPECRT_ASSERT(num_procs > 0, "no processors");
}

std::pair<IterNum, IterNum>
StaticChunkSource::chunkOf(NodeId p) const
{
    IterNum per = numIters / numProcs;
    IterNum extra = numIters % numProcs;
    IterNum lo = 1 + p * per + std::min<IterNum>(p, extra);
    IterNum size = per + (p < extra ? 1 : 0);
    return {lo, lo + size};
}

WorkSource::Grant
StaticChunkSource::next(NodeId p, Tick now)
{
    SPECRT_ASSERT(p >= 0 && p < numProcs, "bad proc %d", p);
    if (handedOut[p])
        return {true, 0, 0, 0};
    handedOut[p] = true;
    auto [lo, hi] = chunkOf(p);
    if (lo >= hi)
        return {true, 0, 0, 0};
    traceGrant(p, now, lo, hi, "static");
    return {false, lo, hi, 0};
}

BlockCyclicSource::BlockCyclicSource(IterNum num_iters, int num_procs,
                                     IterNum block_iters)
    : numIters(num_iters), numProcs(num_procs),
      blockIters(block_iters), nextBlock(num_procs, 0)
{
    SPECRT_ASSERT(block_iters > 0, "zero block size");
}

WorkSource::Grant
BlockCyclicSource::next(NodeId p, Tick now)
{
    SPECRT_ASSERT(p >= 0 && p < numProcs, "bad proc %d", p);
    IterNum ordinal = nextBlock[p] * numProcs + p;
    IterNum lo = 1 + ordinal * blockIters;
    if (lo > numIters)
        return {true, 0, 0, 0};
    ++nextBlock[p];
    IterNum hi = std::min<IterNum>(lo + blockIters, numIters + 1);
    traceGrant(p, now, lo, hi, "block-cyclic");
    return {false, lo, hi, 0};
}

DynamicSource::DynamicSource(IterNum num_iters, IterNum block_iters,
                             Cycles grab_cycles)
    : numIters(num_iters), blockIters(block_iters),
      grabCycles(grab_cycles)
{
    SPECRT_ASSERT(block_iters > 0, "zero block size");
}

WorkSource::Grant
DynamicSource::next(NodeId p, Tick now)
{
    if (nextIter > numIters)
        return {true, 0, 0, 0};
    // Serialize on the shared counter's lock: service starts when
    // the lock frees, and holds it for grabCycles.
    Tick start = std::max(now, lockFree);
    lockFree = start + grabCycles;
    Cycles delay = (start + grabCycles) - now;
    // The whole grant delay -- lock contention plus the grab itself --
    // is scheduling-lock serialization. Charged here (not by the
    // processor) because only this source knows the delay's origin.
    if (stall::Engine *e = stall::active())
        e->charge(p, stall::Cause::SchedWait, static_cast<double>(delay));

    IterNum lo = nextIter;
    IterNum hi = std::min<IterNum>(lo + blockIters, numIters + 1);
    nextIter = hi;
    traceGrant(p, now, lo, hi, "dynamic");
    return {false, lo, hi, delay};
}

std::unique_ptr<WorkSource>
makeSource(SchedPolicy policy, IterNum num_iters, int num_procs,
           IterNum block_iters, Cycles grab_cycles)
{
    switch (policy) {
      case SchedPolicy::StaticChunk:
        return std::make_unique<StaticChunkSource>(num_iters,
                                                   num_procs);
      case SchedPolicy::BlockCyclic:
        return std::make_unique<BlockCyclicSource>(num_iters, num_procs,
                                                   block_iters);
      case SchedPolicy::Dynamic:
        return std::make_unique<DynamicSource>(num_iters, block_iters,
                                               grab_cycles);
    }
    panic("bad scheduling policy");
}

} // namespace specrt
