/** @file Tests of the backup copy programs and of the stores a
 *  backup must restore over, under explored fault schedules. */

#include <gtest/gtest.h>

#include "mem/dsm.hh"
#include "runtime/checkpoint.hh"

using namespace specrt;

TEST(CopyProgram, EmitsLoadStorePairs)
{
    IterProgram prog;
    genCopyProgram(0, 1, 10, 14, prog);
    ASSERT_EQ(prog.size(), 8u);
    EXPECT_EQ(prog[0].kind, OpKind::Load);
    EXPECT_EQ(prog[0].arrayId, 0);
    EXPECT_EQ(prog[0].index.imm, 10);
    EXPECT_EQ(prog[1].kind, OpKind::Store);
    EXPECT_EQ(prog[1].arrayId, 1);
    EXPECT_EQ(prog[7].index.imm, 13);
}

#include "sim/sim_context.hh"
#include "verify/explorer.hh"

namespace
{

/**
 * One run for the explorer: two nodes store into a backed-up region
 * with the requester watchdog enabled, then the pre-store values are
 * written back TWICE, as a restore after a failure would. The verdict
 * asserts quiescence, that both stores landed, and that each restore
 * lands the same pre-store values -- on every explored schedule,
 * including the ones where the explorer chose to drop (watchdog
 * retry) or duplicate a message.
 */
verify::RunVerdict
checkpointedFaultRun()
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.fault.watchdogTimeout = 2000;
    DsmSystem dsm(cfg);
    AddrMap &mem = dsm.memory();
    const Region &r =
        mem.region(mem.alloc("A", 8, 4, Placement::Fixed, 0));
    mem.write(r.elemAddr(0), 4, 7);
    mem.write(r.elemAddr(1), 4, 9);

    const uint64_t before0 = mem.read(r.elemAddr(0), 4);
    const uint64_t before1 = mem.read(r.elemAddr(1), 4);

    dsm.cacheCtrl(0).store(r.elemAddr(0), 4, 100, 1);
    dsm.cacheCtrl(1).store(r.elemAddr(1), 4, 200, 1);
    dsm.eventQueue().run();
    bool quiesced = dsm.quiescent();
    dsm.resetMachine(true); // flush dirty lines into memory

    verify::RunVerdict v;
    std::string err;
    if (!quiesced)
        err += "not quiescent after drain; ";
    uint64_t s0 = mem.read(r.elemAddr(0), 4);
    uint64_t s1 = mem.read(r.elemAddr(1), 4);
    if (s0 != 100 || s1 != 200)
        err += "stores lost (" + std::to_string(s0) + ", " +
               std::to_string(s1) + "); ";
    for (int pass = 1; pass <= 2; ++pass) {
        mem.write(r.elemAddr(0), 4, before0);
        mem.write(r.elemAddr(1), 4, before1);
        if (mem.read(r.elemAddr(0), 4) != 7 ||
            mem.read(r.elemAddr(1), 4) != 9)
            err += "restore pass " + std::to_string(pass) +
                   " did not reproduce the pre-store values; ";
    }
    v.report = err;
    v.ok = err.empty();
    return v;
}

} // namespace

TEST(BackedUpStores, RestoreIdempotentUnderExploredFaultSchedules)
{
    // Every single-fault placement (drop-then-retry or duplicate
    // delivery) interleaved with delivery-order choices: the
    // protocol must quiesce and keep both stores on all of them.
    verify::ExploreOptions o;
    o.exploreFaults = true;
    o.maxFaults = 1;
    o.maxRuns = 20000;
    verify::ExploreResult res = verify::explore(checkpointedFaultRun, o);
    EXPECT_FALSE(res.violated) << res.report;
    EXPECT_FALSE(res.budgetExhausted) << res.summary();
    EXPECT_GT(res.runs, 1u);
}
