/**
 * @file
 * Tests for the stall-attribution engine (sim/stall.hh) and the
 * critical-path recorder (sim/critpath.hh):
 *
 *  - the accounting invariant busy(n) + sum(stall(n, c)) == run ticks
 *    holds tick-for-tick, per node, across serial, HW-priv,
 *    HW-nonpriv (downgraded), and fault-injected runs;
 *  - RunResult::cost is exposed, consistent, and all-zero/invalid
 *    when the profiler is off;
 *  - a forced directory hot-spot makes dir-queue the dominant cause
 *    and the report names the hot home node;
 *  - campaign merges are byte-identical across --jobs values;
 *  - Engine::settlePhase residual charging and over-attribution
 *    give-back behave exactly as documented;
 *  - CostBreakdown::add() sums cycles and keeps the largest run's
 *    node count, and a run set of 1-node and 4-node runs still
 *    attributes exactly its summed node-ticks.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "sim/campaign.hh"
#include "sim/critpath.hh"
#include "sim/sim_context.hh"
#include "sim/stall.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/**
 * A @p procs-node machine. @p profiled switches the current
 * context's critical-path recorder on; each run then begins a stall
 * engine in it.
 */
MachineConfig
machine(int procs, bool profiled = true)
{
    if (profiled)
        critpath::current().enable();
    MachineConfig cfg;
    cfg.numProcs = procs;
    return cfg;
}

/**
 * Assert the accounting invariant on the last run's engine: every
 * node's busy + attributed stall cycles equals the run length,
 * exactly (all charges are integral cycle counts held in doubles).
 */
void
expectExactAttribution(const RunResult &res, const char *what)
{
    stall::Engine *eng = critpath::current().engine();
    ASSERT_NE(eng, nullptr) << what;
    EXPECT_EQ(eng->settledTicks(),
              static_cast<double>(res.totalTicks))
        << what;
    for (NodeId n = 0; n < eng->numProcs(); ++n) {
        EXPECT_EQ(eng->busyOf(n) + eng->attributed(n),
                  static_cast<double>(res.totalTicks))
            << what << ": node " << n;
    }
    // The CostBreakdown mirrors the engine, summed over nodes.
    ASSERT_TRUE(res.cost.valid) << what;
    EXPECT_EQ(res.cost.numProcs, eng->numProcs()) << what;
    EXPECT_EQ(res.cost.perNodeTicks,
              static_cast<double>(res.totalTicks))
        << what;
    EXPECT_EQ(res.cost.nodeTicks,
              static_cast<double>(res.totalTicks) * eng->numProcs())
        << what;
    EXPECT_EQ(res.cost.busy + res.cost.stallTotal(), res.cost.nodeTicks)
        << what;
}

} // namespace

// --- end-to-end accounting invariant ----------------------------------

TEST(StallAccounting, SerialRunFullyAttributed)
{
    SimContext ctx(1);
    ScopedSimContext scope(ctx);
    Fig1CLoop loop(64, 256, /*disjoint=*/true, 5);
    LoopExecutor exec(machine(1), loop, ExecConfig{ExecMode::Serial});
    RunResult res = exec.run();
    EXPECT_TRUE(res.passed);
    EXPECT_GT(res.totalTicks, 0u);
    expectExactAttribution(res, "serial");
}

TEST(StallAccounting, HwPrivatizedRunFullyAttributed)
{
    SimContext ctx(2);
    ScopedSimContext scope(ctx);
    Fig1BLoop loop(64);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor exec(machine(8), loop, xc);
    RunResult res = exec.run();
    EXPECT_TRUE(res.passed) << res.hwFailure.reason;
    expectExactAttribution(res, "hw-priv");
}

TEST(StallAccounting, HwNonPrivAbortedRunFullyAttributed)
{
    // Downgraded privatization fails speculation: the run includes
    // restore + serial re-execution phases (AbortRedo attribution).
    SimContext ctx(3);
    ScopedSimContext scope(ctx);
    Fig1BLoop loop(64);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.downgradePrivToNonPriv = true;
    LoopExecutor exec(machine(8), loop, xc);
    RunResult res = exec.run();
    EXPECT_FALSE(res.passed);
    EXPECT_GT(res.phases.serial, 0u);
    expectExactAttribution(res, "hw-nonpriv-abort");
    EXPECT_GT(critpath::current().engine()->causeTotal(
                  stall::Cause::AbortRedo),
              0.0);
}

TEST(StallAccounting, FaultedRunFullyAttributed)
{
    // Message loss + watchdog retries: the retry windows and the
    // settle-time give-back paths all stay exact.
    SimContext ctx(4);
    ScopedSimContext scope(ctx);
    Fig1CLoop loop(64, 256, /*disjoint=*/true, 7);
    MachineConfig cfg = machine(4);
    cfg.fault.seed = 11;
    cfg.fault.dropProb = 0.05;
    cfg.fault.jitterProb = 0.1;
    cfg.fault.watchdogTimeout = 4000;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();
    expectExactAttribution(res, "faulted");
}

TEST(StallAccounting, MixedNodeCountRunSetAttributesItsNodeTicks)
{
    // The recorder's totals over a 1-node and a 4-node run: busy +
    // stalls is each run's nodes times its ticks, summed, which the
    // largest node count times the summed ticks overstates.
    SimContext ctx(8);
    ScopedSimContext scope(ctx);
    Fig1CLoop loop(64, 256, /*disjoint=*/true, 5);
    LoopExecutor serial(machine(1), loop, ExecConfig{ExecMode::Serial});
    RunResult one = serial.run();
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor hw(machine(4), loop, xc);
    RunResult four = hw.run();
    ASSERT_TRUE(one.passed);
    ASSERT_TRUE(four.passed) << four.hwFailure.reason;

    const stall::CostBreakdown &set = critpath::current().totals();
    ASSERT_TRUE(set.valid);
    EXPECT_EQ(set.numProcs, 4);
    EXPECT_EQ(set.perNodeTicks,
              static_cast<double>(one.totalTicks + four.totalTicks));
    EXPECT_EQ(set.nodeTicks,
              static_cast<double>(one.totalTicks + 4 * four.totalTicks));
    EXPECT_EQ(set.busy + set.stallTotal(), set.nodeTicks);
    EXPECT_LT(set.nodeTicks, set.numProcs * set.perNodeTicks);
}

TEST(StallAccounting, DisabledProfilerLeavesCostInvalid)
{
    SimContext ctx(5);
    ScopedSimContext scope(ctx);
    Fig1CLoop loop(32, 128, true, 5);
    LoopExecutor exec(machine(4, /*profiled=*/false), loop,
                      ExecConfig{ExecMode::Ideal});
    RunResult res = exec.run();
    EXPECT_TRUE(res.passed);
    EXPECT_FALSE(res.cost.valid);
    EXPECT_EQ(res.cost.stallTotal(), 0.0);
    EXPECT_EQ(critpath::current().engine(), nullptr);
    EXPECT_EQ(res.cost.summary(), "");
}

TEST(StallAccounting, MemStallsAreSplitIntoComponents)
{
    // A remote-heavy run must attribute real cycles to the memory
    // system split, not just the phase residuals.
    SimContext ctx(6);
    ScopedSimContext scope(ctx);
    Fig1CLoop loop(128, 512, true, 5);
    ExecConfig xc;
    xc.mode = ExecMode::Ideal;
    LoopExecutor exec(machine(8), loop, xc);
    RunResult res = exec.run();
    EXPECT_TRUE(res.passed);
    expectExactAttribution(res, "ideal");
    EXPECT_GT(res.cost.stallOf(stall::Cause::LoadMiss), 0.0);
    EXPECT_GT(res.cost.stallOf(stall::Cause::NetTransit), 0.0);
    EXPECT_GT(res.cost.stallOf(stall::Cause::Barrier), 0.0);
    std::string s = res.cost.summary();
    EXPECT_NE(s.find("run bounded"), std::string::npos) << s;
}

// --- pinned dominant-cause scenario -----------------------------------

TEST(CritPath, DirHotspotMakesDirQueueDominant)
{
    // A tiny array lives on one page -> one home node; a huge
    // directory occupancy serializes every miss there. The dominant
    // cost component must be dir-queue, and the report must name the
    // hot home.
    SimContext ctx(7);
    ScopedSimContext scope(ctx);
    Fig1CLoop loop(64, 64, /*disjoint=*/true, 5);
    MachineConfig cfg = machine(8);
    cfg.lat.dirOccupancy = 2000;
    ExecConfig xc;
    xc.mode = ExecMode::Ideal;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();
    EXPECT_TRUE(res.passed);
    expectExactAttribution(res, "dir-hotspot");

    EXPECT_EQ(res.cost.dominantCause(), stall::Cause::DirQueue)
        << res.cost.summary();
    EXPECT_GT(res.cost.dominantShare(), 0.5);
    std::string s = res.cost.summary();
    EXPECT_NE(s.find("dir-queue"), std::string::npos) << s;

    // The recorder saw the transactions, holds the run's totals and
    // names the hot home.
    critpath::Recorder &rec = critpath::current();
    EXPECT_TRUE(rec.hasData());
    EXPECT_EQ(rec.totals().stalls, res.cost.stalls);
    EXPECT_EQ(rec.totals().busy, res.cost.busy);
    EXPECT_GT(rec.numTxns(), 0u);
    std::string line = rec.summaryLine();
    EXPECT_NE(line.find("dir-queue"), std::string::npos) << line;
    EXPECT_NE(line.find("at home node"), std::string::npos) << line;
    EXPECT_FALSE(rec.slowest().empty());
    // Slowest transactions carry the component split.
    const critpath::TxnRecord &slow = rec.slowest().front();
    EXPECT_GT(slow.dirWait, 0.0);
    EXPECT_GE(slow.latency(),
              slow.dirWait + slow.net + slow.retry + slow.service -
                  1e-9);

    // The Perfetto export contains the async track and the summary.
    std::string json = rec.perfettoJson();
    EXPECT_NE(json.find("\"critical path\""), std::string::npos);
    EXPECT_NE(json.find("\"dir_queue\""), std::string::npos);
    EXPECT_NE(json.find("run bounded"), std::string::npos);
}

// --- campaign determinism ---------------------------------------------

namespace
{

/** Run @p n profiled jobs under @p workers threads; return the merged
 *  recorder's Perfetto JSON (merged in job-id order). */
std::string
mergedCritpathJson(size_t n, unsigned workers)
{
    std::vector<critpath::Recorder> shards(n);
    campaign::Options opts;
    opts.jobs = workers;
    auto outcomes = campaign::run(
        n,
        [&](size_t id, SimContext &) {
            critpath::current().enable();
            Fig1CLoop loop(64, 256, true,
                           static_cast<int>(5 + id));
            ExecConfig xc;
            xc.mode = ExecMode::HW;
            LoopExecutor exec(machine(4), loop, xc);
            exec.run();
            shards[id].merge(critpath::current());
        },
        opts);
    EXPECT_TRUE(campaign::allOk(outcomes));
    critpath::Recorder merged;
    for (const critpath::Recorder &s : shards)
        merged.merge(s);
    return merged.perfettoJson();
}

} // namespace

TEST(CritPath, CampaignMergeIsByteIdenticalAcrossJobs)
{
    std::string serial = mergedCritpathJson(4, 1);
    std::string parallel = mergedCritpathJson(4, 2);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

TEST(CritPath, MovedRecorderLeavesItsEngineBehind)
{
    // The engine feeds the recorder that began the run through a
    // pointer, so a move (a campaign job's shard) must not carry it.
    critpath::Recorder job;
    job.beginRun(2).loadBegin(0, 1, 0x100, 0x104, 1, 1, 0);
    job.endRun(10);
    critpath::Recorder shard = std::move(job);
    EXPECT_EQ(shard.engine(), nullptr);
    EXPECT_EQ(shard.numRuns(), 1u);
    ASSERT_NE(job.engine(), nullptr);
    job.engine()->loadWait(0, 50, 50);
    EXPECT_EQ(job.numTxns(), 1u);
    EXPECT_EQ(shard.numTxns(), 0u);
}

// --- engine unit behavior ---------------------------------------------

TEST(StallEngine, SettleChargesResidualToPhaseCause)
{
    stall::Engine eng(2);
    eng.beginPhase();
    eng.charge(0, stall::Cause::DirQueue, 30);
    std::vector<double> busy = {50, 10};
    eng.settlePhase(100, busy, stall::Cause::Barrier);
    // Node 0: 100 - 50 busy - 30 dir = 20 residual -> Barrier.
    EXPECT_EQ(eng.busyOf(0), 50.0);
    EXPECT_EQ(eng.total(0, stall::Cause::DirQueue), 30.0);
    EXPECT_EQ(eng.total(0, stall::Cause::Barrier), 20.0);
    // Node 1: all residual.
    EXPECT_EQ(eng.total(1, stall::Cause::Barrier), 90.0);
    EXPECT_EQ(eng.settledTicks(), 100.0);
    for (NodeId n = 0; n < 2; ++n)
        EXPECT_EQ(eng.busyOf(n) + eng.attributed(n), 100.0);
}

TEST(StallEngine, SettleGivesBackOverAttribution)
{
    stall::Engine eng(1);
    eng.beginPhase();
    // Attribute more than the phase holds: 80 net + 40 dir vs 100
    // ticks and 10 busy -> 30 cycles must come back, net first.
    eng.charge(0, stall::Cause::NetTransit, 80);
    eng.charge(0, stall::Cause::DirQueue, 40);
    std::vector<double> busy = {10};
    eng.settlePhase(100, busy, stall::Cause::Other);
    EXPECT_EQ(eng.busyOf(0), 10.0);
    EXPECT_EQ(eng.total(0, stall::Cause::NetTransit), 50.0);
    EXPECT_EQ(eng.total(0, stall::Cause::DirQueue), 40.0);
    EXPECT_EQ(eng.busyOf(0) + eng.attributed(0), 100.0);
}

TEST(StallEngine, LoadWaitReconcilesComponentCredits)
{
    stall::Engine eng(1);
    eng.beginPhase();
    eng.loadBegin(0, 7, 0x100, 0x104, 3, 1, 1000);
    eng.dirWait(0, 7, 20);
    eng.netLeg(0, 7, 74);
    eng.netLeg(0, 7, 74);
    // A retry window larger than the whole wait: must be clamped.
    eng.retryWindow(0, 7, 500);
    eng.loadWait(0, 300, 1300);
    EXPECT_EQ(eng.total(0, stall::Cause::DirQueue), 20.0);
    EXPECT_EQ(eng.total(0, stall::Cause::NetTransit), 148.0);
    // 300 - 20 - 148 = 132 left for the retry credit...
    EXPECT_EQ(eng.total(0, stall::Cause::RetryBackoff), 132.0);
    // ...and nothing for the service remainder.
    EXPECT_EQ(eng.total(0, stall::Cause::LoadMiss), 0.0);
    EXPECT_EQ(eng.attributed(0), 300.0);
}

TEST(StallEngine, MismatchedSeqCreditsAreDropped)
{
    stall::Engine eng(1);
    eng.loadBegin(0, 7, 0x100, 0x104, 3, 1, 0);
    eng.dirWait(0, 99, 1000); // store txn / stray: never charged
    eng.netLeg(0, 99, 74);
    EXPECT_EQ(eng.attributed(0), 0.0);
    eng.loadWait(0, 50, 100);
    EXPECT_EQ(eng.total(0, stall::Cause::LoadMiss), 50.0);
}

TEST(StallEngine, CostBreakdownAddSumsCyclesAndMaxesProcs)
{
    stall::CostBreakdown a, b;
    b.valid = true;
    b.numProcs = 4;
    b.perNodeTicks = 1000;
    b.nodeTicks = 4000;
    b.busy = 600;
    b.stalls[0] = 400;
    a.add(b);
    EXPECT_TRUE(a.valid);
    EXPECT_EQ(a.numProcs, 4);
    EXPECT_EQ(a.busy, 600.0);

    stall::CostBreakdown c;
    c.valid = true;
    c.numProcs = 8;
    c.perNodeTicks = 500;
    c.nodeTicks = 4000;
    c.busy = 300;
    c.stalls[0] = 200;
    a.add(c);
    EXPECT_EQ(a.numProcs, 8) << "procs is a max, not a sum";
    EXPECT_EQ(a.perNodeTicks, 1500.0);
    EXPECT_EQ(a.nodeTicks, 8000.0);
    EXPECT_EQ(a.busy, 900.0);
    EXPECT_EQ(a.stalls[0], 600.0);

    // A run with no profile never flips valid.
    stall::CostBreakdown d, e;
    d.add(e);
    EXPECT_FALSE(d.valid);
}

TEST(StallEngine, CostBreakdownSummaryNamesDominantCause)
{
    stall::CostBreakdown cb;
    cb.valid = true;
    cb.numProcs = 4;
    cb.stalls[static_cast<size_t>(stall::Cause::NetTransit)] = 610;
    cb.stalls[static_cast<size_t>(stall::Cause::LoadMiss)] = 390;
    EXPECT_EQ(cb.dominantCause(), stall::Cause::NetTransit);
    EXPECT_EQ(cb.summary(), "run bounded 61% by net-transit");
}
