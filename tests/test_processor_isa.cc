/** @file Tests of the micro-ISA and the processor model's timing. */

#include <gtest/gtest.h>

#include "mem/dsm.hh"
#include "runtime/processor.hh"
#include "runtime/scheduler.hh"

using namespace specrt;

TEST(Isa, AluSemantics)
{
    EXPECT_EQ(evalAlu(AluOp::Add, 3, 4), 7);
    EXPECT_EQ(evalAlu(AluOp::Sub, 3, 4), -1);
    EXPECT_EQ(evalAlu(AluOp::Mul, 3, 4), 12);
    EXPECT_EQ(evalAlu(AluOp::And, 6, 3), 2);
    EXPECT_EQ(evalAlu(AluOp::Or, 6, 3), 7);
    EXPECT_EQ(evalAlu(AluOp::Xor, 6, 3), 5);
    EXPECT_EQ(evalAlu(AluOp::Min, 6, 3), 3);
    EXPECT_EQ(evalAlu(AluOp::Max, 6, 3), 6);
    EXPECT_EQ(evalAlu(AluOp::Mod, -1, 5), 4);
    EXPECT_EQ(evalAlu(AluOp::Shr, 256, 3), 32);
}

TEST(Isa, BuildersFillFields)
{
    Op l = opLoad(3, 1, IndexOperand::fromReg(2));
    EXPECT_EQ(l.kind, OpKind::Load);
    EXPECT_EQ(l.dst, 3);
    EXPECT_EQ(l.arrayId, 1);
    EXPECT_TRUE(l.index.isReg);

    Op s = opStore(0, 17, 4);
    EXPECT_EQ(s.kind, OpKind::Store);
    EXPECT_EQ(s.index.imm, 17);
    EXPECT_EQ(s.srcA, 4);

    EXPECT_FALSE(opToString(opBusy(3)).empty());
    EXPECT_NE(opToString(l).find("load"), std::string::npos);
}

namespace
{

/** One-processor harness running a single program. */
struct Harness
{
    MachineConfig cfg;
    std::unique_ptr<DsmSystem> dsm;
    std::unique_ptr<Processor> proc;
    const Region *r;
    std::vector<ArrayBinding> bindings;

    Harness()
    {
        cfg.numProcs = 2;
        dsm = std::make_unique<DsmSystem>(cfg);
        int id = dsm->memory().alloc("A", 64 * 1024, 4,
                                     Placement::Fixed, 0);
        r = &dsm->memory().region(id);
        for (uint64_t e = 0; e < 64; ++e)
            dsm->memory().write(r->elemAddr(e), 4, e * 10);
        proc = std::make_unique<Processor>(0, dsm->eventQueue(),
                                           dsm->cacheCtrl(0), cfg);
        bindings.push_back({r, false, -1});
        proc->setBindings(&bindings);
    }

    /** Run one program as the sole iteration; return elapsed ticks. */
    Tick
    run(const IterProgram &prog)
    {
        StaticChunkSource src(1, 1);
        bool done = false;
        Tick t0 = dsm->eventQueue().curTick();
        proc->startPhase(
            &src,
            [&prog](IterNum, IterProgram &out) { out = prog; }, false,
            [&done](NodeId) { done = true; });
        dsm->eventQueue().run();
        EXPECT_TRUE(done);
        return dsm->eventQueue().curTick() - t0;
    }
};

} // namespace

TEST(Processor, BusyOpsTakeTheirCycles)
{
    Harness h;
    IterProgram prog = {opBusy(10), opBusy(5)};
    Tick t = h.run(prog);
    EXPECT_EQ(t, 15u);
    EXPECT_EQ(h.proc->busyCycles(), 15.0);
    EXPECT_EQ(h.proc->memCycles(), 0.0);
}

TEST(Processor, AluChainComputesAndCosts)
{
    Harness h;
    IterProgram prog = {
        opImm(1, 6), opImm(2, 7), opAlu(3, AluOp::Mul, 1, 2),
        opStore(0, 0, 3),
    };
    h.run(prog);
    h.dsm->resetMachine(true);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(0), 4), 42u);
    EXPECT_EQ(h.proc->busyCycles(), 4.0);
}

TEST(Processor, LoadLatencyGoesToMemTime)
{
    Harness h;
    IterProgram prog = {opLoad(1, 0, 5)};
    h.run(prog);
    // Local memory miss: 60 cycles total = 1 busy + 59 stall.
    EXPECT_EQ(h.proc->busyCycles(), 1.0);
    EXPECT_EQ(h.proc->memCycles(), 59.0);
}

TEST(Processor, CachedLoadHasNoMemTime)
{
    Harness h;
    IterProgram prog = {opLoad(1, 0, 5), opLoad(2, 0, 5)};
    h.run(prog);
    EXPECT_EQ(h.proc->memCycles(), 59.0); // only the first one
    EXPECT_EQ(h.proc->busyCycles(), 2.0);
}

TEST(Processor, IndirectIndexingUsesRegisterValue)
{
    Harness h;
    // A[3] holds 30; use it (scaled) as an index: A[30/10]=A[3]...
    // Simpler: load A[4]=40, shift to 5, load A[5]=50.
    IterProgram prog = {
        opImm(1, 4),
        opLoad(2, 0, IndexOperand::fromReg(1)), // r2 = 40
        opImm(3, 3),
        opAlu(4, AluOp::Shr, 2, 3),             // r4 = 5
        opLoad(5, 0, IndexOperand::fromReg(4)), // r5 = A[5] = 50
        opStore(0, 60, 5),
    };
    h.run(prog);
    h.dsm->resetMachine(true);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(60), 4), 50u);
}

TEST(Processor, StoresDontStallUntilBufferFull)
{
    Harness h;
    IterProgram prog;
    // More distinct-line stores than write-buffer entries.
    for (int i = 0; i < h.cfg.writeBufferEntries + 4; ++i)
        prog.push_back(opStore(0, i * 16, 1)); // 16 elems = 1 line
    h.run(prog);
    EXPECT_GT(h.proc->memCycles(), 0.0); // eventually stalled
    EXPECT_EQ(h.proc->busyCycles(),
              static_cast<double>(h.cfg.writeBufferEntries + 4));
}

TEST(Processor, RegistersClearBetweenIterations)
{
    Harness h;
    StaticChunkSource src(2, 1);
    std::vector<int64_t> seen;
    bool done = false;
    h.proc->startPhase(
        &src,
        [&](IterNum i, IterProgram &out) {
            if (i == 1) {
                out = {opImm(7, 99), opStore(0, 1, 7)};
            } else {
                // r7 must be 0 again in iteration 2.
                out = {opStore(0, 2, 7)};
            }
        },
        false, [&done](NodeId) { done = true; });
    h.dsm->eventQueue().run();
    EXPECT_TRUE(done);
    h.dsm->resetMachine(true);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(1), 4), 99u);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(2), 4), 0u);
}

TEST(Processor, SchedulingDelayCountsAsSync)
{
    Harness h;
    DynamicSource src(1, 1, 100);
    bool done = false;
    h.proc->startPhase(
        &src, [](IterNum, IterProgram &out) { out = {opBusy(1)}; },
        false, [&done](NodeId) { done = true; });
    h.dsm->eventQueue().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(h.proc->syncCycles(), 100.0);
}

TEST(Processor, IterationCountsAreTracked)
{
    Harness h;
    StaticChunkSource src(5, 1);
    bool done = false;
    h.proc->startPhase(
        &src, [](IterNum, IterProgram &out) { out = {opBusy(2)}; },
        false, [&done](NodeId) { done = true; });
    h.dsm->eventQueue().run();
    EXPECT_EQ(h.proc->itersExecuted(), 5u);
}

namespace
{

/** What running one program leaves behind. */
struct ChunkedOutcome
{
    Tick ticks = 0;
    double busy = 0;
    double mem = 0;
    double sync = 0;
    uint64_t iters = 0;
    uint64_t fired = 0;
    std::vector<uint64_t> memory;
};

/**
 * Run @p prog as one iteration whose program arrives in chunks: a
 * chunk ends before each index in @p cuts (ascending). With no cuts
 * the program runs whole, without a refill.
 */
ChunkedOutcome
runChunked(const IterProgram &prog, const std::vector<size_t> &cuts)
{
    Harness h;
    std::vector<IterProgram> chunks;
    size_t from = 0;
    for (size_t cut : cuts) {
        chunks.emplace_back(prog.begin() + from, prog.begin() + cut);
        from = cut;
    }
    chunks.emplace_back(prog.begin() + from, prog.end());

    size_t next = 0;
    auto take = [&](IterProgram &out) {
        if (next < chunks.size())
            out = chunks[next++];
    };
    Processor::Refill refill;
    if (!cuts.empty())
        refill = take;
    StaticChunkSource src(1, 1);
    bool done = false;
    h.proc->startPhase(
        &src, [&](IterNum, IterProgram &out) { take(out); }, false,
        [&done](NodeId) { done = true; }, refill);
    h.dsm->eventQueue().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(next, chunks.size());

    ChunkedOutcome o;
    o.ticks = h.dsm->eventQueue().curTick();
    o.busy = h.proc->busyCycles();
    o.mem = h.proc->memCycles();
    o.sync = h.proc->syncCycles();
    o.iters = h.proc->itersExecuted();
    o.fired = h.dsm->eventQueue().numFired();
    h.dsm->resetMachine(true);
    for (uint64_t e = 0; e < h.r->numElems(); ++e)
        o.memory.push_back(h.dsm->memory().read(h.r->elemAddr(e), 4));
    return o;
}

} // namespace

TEST(Processor, ChunkedProgramRunsLikeTheWholeProgram)
{
    MachineConfig cfg;
    const size_t wb = static_cast<size_t>(cfg.writeBufferEntries);
    IterProgram prog = {
        opImm(1, 5),
        opLoad(2, 0, 3),              // r2 = 30 (miss)
        opAlu(3, AluOp::Add, 2, 1),   // r3 = 35
        opBusy(4),
        opImm(4, 7),
        opAlu(5, AluOp::Mul, 3, 4),   // r5 = 245
        opBusy(3),
        opLoad(6, 0, 40),             // r6 = 400, right after a Busy
    };
    const size_t load_after_busy = prog.size() - 1;
    const size_t first_store = prog.size();
    // More distinct-line stores than write-buffer entries: the run
    // stalls on a full buffer.
    for (size_t i = 0; i < wb + 4; ++i)
        prog.push_back(opStore(0, static_cast<int64_t>(1024 + i * 16),
                               i % 2 ? 5 : 6));
    prog.push_back(opLoad(7, 0, 1024));   // reads back the first store
    prog.push_back(opAlu(8, AluOp::Add, 7, 5));
    prog.push_back(opStore(0, 50, 8));
    prog.push_back(opBusy(2));

    ChunkedOutcome whole = runChunked(prog, {});
    EXPECT_GT(whole.mem, 0.0);
    EXPECT_EQ(whole.iters, 1u);
    EXPECT_EQ(whole.memory[50], 400u + 245u);

    // One boundary right after the Busy that precedes a load, one
    // where the write buffer is full and the next store must stall.
    std::vector<std::vector<size_t>> splits = {
        {load_after_busy, first_store + wb}};
    for (size_t k : {1, 2, 3, 7}) {
        std::vector<size_t> cuts;
        for (size_t c = k; c < prog.size(); c += k)
            cuts.push_back(c);
        splits.push_back(cuts);
    }
    for (const std::vector<size_t> &cuts : splits) {
        ChunkedOutcome chunked = runChunked(prog, cuts);
        EXPECT_EQ(chunked.ticks, whole.ticks) << cuts.size() << " cuts";
        EXPECT_EQ(chunked.busy, whole.busy) << cuts.size() << " cuts";
        EXPECT_EQ(chunked.mem, whole.mem) << cuts.size() << " cuts";
        EXPECT_EQ(chunked.sync, whole.sync) << cuts.size() << " cuts";
        EXPECT_EQ(chunked.iters, whole.iters) << cuts.size() << " cuts";
        EXPECT_EQ(chunked.fired, whole.fired) << cuts.size() << " cuts";
        EXPECT_TRUE(chunked.memory == whole.memory)
            << cuts.size() << " cuts";
    }
}
