/**
 * @file
 * End-to-end tests of the loop executor: all four execution modes,
 * semantic equivalence with serial execution, failure + restore +
 * re-execution, privatization with read-in/copy-out, and early
 * abort timing.
 */

#include <gtest/gtest.h>

#include "core/loop_exec.hh"
#include "workloads/microloops.hh"
#include "workloads/p3m.hh"

using namespace specrt;

namespace
{

MachineConfig
machine(int procs = 8)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    return cfg;
}

/** Final contents of shared array @p decl after running @p w. */
std::vector<uint64_t>
finalArray(LoopExecutor &exec, int decl)
{
    const Region *r = exec.sharedRegion(decl);
    std::vector<uint64_t> out(r->numElems());
    for (uint64_t e = 0; e < r->numElems(); ++e)
        out[e] = exec.machine().memory().read(r->elemAddr(e),
                                              r->elemBytes);
    return out;
}

/** Run one mode; return (result, final contents of array 0). */
std::pair<RunResult, std::vector<uint64_t>>
runMode(Workload &w, ExecMode mode, int procs = 8,
        ExecConfig base = {})
{
    base.mode = mode;
    LoopExecutor exec(machine(procs), w, base);
    RunResult res = exec.run();
    return {res, finalArray(exec, 0)};
}

} // namespace

TEST(Executor, SerialMatchesHandComputedFig1A)
{
    Fig1ALoop loop(16);
    auto [res, a] = runMode(loop, ExecMode::Serial, 1);
    EXPECT_TRUE(res.passed);
    // A starts as (1, 2, ..., 17); A[i] += A[i-1] serially gives
    // prefix sums.
    uint64_t expect = 1;
    for (IterNum i = 1; i <= 16; ++i) {
        expect += static_cast<uint64_t>(i) + 1;
        EXPECT_EQ(a[i], expect) << "element " << i;
    }
}

TEST(Executor, HwAbortsFlowDependentLoop)
{
    Fig1ALoop loop(64);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    ExecConfig xc;
    xc.blockIters = 2;
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8, xc);
    EXPECT_FALSE(hw.passed);
    EXPECT_TRUE(hw.hwFailure.failed);
    EXPECT_GT(hw.phases.serial, 0u);
    EXPECT_GT(hw.phases.restore, 0u);
    // Re-executed serially: results match the serial run.
    EXPECT_EQ(ha, sa);
}

TEST(Executor, SwFailsFlowDependentLoopAfterFullRun)
{
    Fig1ALoop loop(64);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    auto [sw, swa] = runMode(loop, ExecMode::SW, 8);
    EXPECT_FALSE(sw.passed);
    EXPECT_GT(sw.phases.merge, 0u);
    EXPECT_GT(sw.phases.analysis, 0u);
    EXPECT_GT(sw.phases.serial, 0u);
    EXPECT_EQ(swa, sa);
    // SW detects only after loop completion; the loop phase ran all
    // iterations.
    EXPECT_EQ(sw.itersExecuted, 64u);
}

TEST(Executor, HwDetectsFailureBeforeLoopEnd)
{
    Fig1ALoop loop(256);
    ExecConfig xc;
    xc.blockIters = 2;
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8, xc);
    EXPECT_FALSE(hw.passed);
    // Early abort: far fewer iterations executed than the trip count.
    EXPECT_LT(hw.itersExecuted, 64u);
    auto [sw, swa] = runMode(loop, ExecMode::SW, 8, xc);
    EXPECT_LT(hw.phases.loop, sw.phases.loop);
}

TEST(Executor, ParallelLoopPassesEverywhereAndMatchesSerial)
{
    Fig1CLoop loop(256, 1024, /*disjoint=*/true, 5);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    auto [ideal, ia] = runMode(loop, ExecMode::Ideal, 8);
    auto [sw, swa] = runMode(loop, ExecMode::SW, 8);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8);
    EXPECT_TRUE(ideal.passed);
    EXPECT_TRUE(sw.passed);
    EXPECT_TRUE(hw.passed);
    EXPECT_EQ(ia, sa);
    EXPECT_EQ(swa, sa);
    EXPECT_EQ(ha, sa);
    EXPECT_EQ(hw.phases.serial, 0u);
    EXPECT_EQ(hw.phases.restore, 0u);
}

TEST(Executor, CollidingSubscriptsFailEverywhereAndRecover)
{
    Fig1CLoop loop(128, 256, /*disjoint=*/false, 7);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    auto [sw, swa] = runMode(loop, ExecMode::SW, 8);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8);
    EXPECT_FALSE(sw.passed);
    EXPECT_FALSE(hw.passed);
    EXPECT_EQ(swa, sa);
    EXPECT_EQ(ha, sa);
}

TEST(Executor, PrivatizationMakesFig1BParallel)
{
    Fig1BLoop loop(64);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8);
    EXPECT_TRUE(hw.passed) << hw.hwFailure.reason;
    EXPECT_EQ(ha, sa);
    auto [sw, swa] = runMode(loop, ExecMode::SW, 8);
    EXPECT_TRUE(sw.passed);
    EXPECT_EQ(swa, sa);
}

TEST(Executor, DowngradedPrivatizationFails)
{
    // The forced-failure scenario of section 6.2: run the
    // non-privatization algorithm on privatization-needing arrays.
    Fig1BLoop loop(64);
    ExecConfig xc;
    xc.downgradePrivToNonPriv = true;
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8, xc);
    EXPECT_FALSE(hw.passed);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    EXPECT_EQ(ha, sa);
}

TEST(Executor, Fig3ReadInNeededPassesHw)
{
    Fig3Loop loop(Fig3Kind::ReadInNeeded, 32);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8);
    EXPECT_TRUE(hw.passed) << hw.hwFailure.reason;
    // R captured the pre-loop value 999 in the first half; the
    // second-half entries saw each iteration's own write.
    LoopExecutor sexec(machine(1), loop, ExecConfig{ExecMode::Serial});
    (void)sexec;
    auto [hw2, hr] = runMode(loop, ExecMode::HW, 8);
    (void)hw2;
    EXPECT_EQ(ha, sa); // A(1): copy-out of the last writing iteration
}

TEST(Executor, Fig3ReadInResultsMatchSerialInR)
{
    Fig3Loop loop(Fig3Kind::ReadInNeeded, 32);
    ExecConfig xc;
    LoopExecutor serial_exec(machine(1), loop,
                             ExecConfig{ExecMode::Serial});
    RunResult sres = serial_exec.run();
    EXPECT_TRUE(sres.passed);
    auto sr = finalArray(serial_exec, 1);

    xc.mode = ExecMode::HW;
    LoopExecutor hw_exec(machine(8), loop, xc);
    RunResult hres = hw_exec.run();
    EXPECT_TRUE(hres.passed) << hres.hwFailure.reason;
    const Region *r = hw_exec.sharedRegion(1);
    for (uint64_t e = 0; e < r->numElems(); ++e) {
        EXPECT_EQ(hw_exec.machine().memory().read(r->elemAddr(e), 4),
                  sr[e])
            << "R[" << e << "]";
    }
}

TEST(Executor, Fig3WriteFirstCopyOutTakesLastIteration)
{
    Fig3Loop loop(Fig3Kind::WriteFirst, 32);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8);
    EXPECT_TRUE(hw.passed) << hw.hwFailure.reason;
    EXPECT_GT(hw.phases.copyOut, 0u);
    EXPECT_EQ(ha[0], 2000u + 32u); // iteration 32's value wins
}

TEST(Executor, Fig3FlowDepFailsHwPriv)
{
    Fig3Loop loop(Fig3Kind::FlowDep, 32);
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8);
    EXPECT_FALSE(hw.passed);
    EXPECT_EQ(ha, sa);
}

TEST(Executor, Fig2FailsBothSchemes)
{
    Fig2Loop loop;
    auto [serial, sa] = runMode(loop, ExecMode::Serial, 1);
    auto [sw, swa] = runMode(loop, ExecMode::SW, 4);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 4);
    EXPECT_FALSE(sw.passed);
    EXPECT_FALSE(hw.passed);
    EXPECT_EQ(swa, sa);
    EXPECT_EQ(ha, sa);
    // The SW analysis saw the paper's chart values.
    const LrpdAnalysis &a = sw.swAnalyses.at(0);
    EXPECT_EQ(a.atw, 3u);
    EXPECT_EQ(a.atm, 2u);
}

TEST(Executor, BreakdownAndPhasesAreConsistent)
{
    Fig1CLoop loop(256, 1024, true, 5);
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8);
    EXPECT_GT(hw.agg.busy, 0.0);
    EXPECT_GT(hw.agg.mem, 0.0);
    EXPECT_EQ(hw.totalTicks, hw.phases.total());
    EXPECT_GT(hw.phases.backup, 0u);
    EXPECT_GT(hw.phases.loop, 0u);

    // Each run starts its own machine at tick 0, and every phase ends
    // at the tick its barrier is passed, so the clock ends where the
    // run's length says: an HW commit, an HW abort, an SW run that
    // fails (restore + serial re-execution) and one that passes.
    Fig1ALoop flow(64);
    Fig1BLoop priv(64);
    struct Case
    {
        Workload *w;
        ExecMode mode;
        bool passes;
    };
    for (const Case &c : {Case{&loop, ExecMode::HW, true},
                          Case{&flow, ExecMode::HW, false},
                          Case{&flow, ExecMode::SW, false},
                          Case{&priv, ExecMode::SW, true}}) {
        ExecConfig xc;
        xc.mode = c.mode;
        LoopExecutor exec(machine(8), *c.w, xc);
        RunResult res = exec.run();
        SCOPED_TRACE(std::string(execModeName(c.mode)) +
                     (c.passes ? " pass" : " fail"));
        EXPECT_EQ(res.passed, c.passes);
        EXPECT_EQ(res.totalTicks, res.phases.total());
        EXPECT_EQ(exec.machine().eventQueue().curTick(), res.totalTicks);
    }
}

TEST(Executor, TraceIsKeptOnRequest)
{
    Fig1CLoop loop(64, 128, true, 5);
    ExecConfig xc;
    xc.keepTrace = true;
    auto [hw, ha] = runMode(loop, ExecMode::HW, 4, xc);
    EXPECT_FALSE(hw.trace.empty());
    // Each iteration reads and writes the tested array once.
    size_t reads = 0, writes = 0;
    for (const AccessEvent &e : hw.trace) {
        reads += !e.isWrite;
        writes += e.isWrite;
    }
    EXPECT_EQ(reads, 64u);
    EXPECT_EQ(writes, 64u);
}

TEST(Executor, SchedulingPoliciesAllWork)
{
    Fig1CLoop loop(128, 512, true, 9);
    for (SchedPolicy pol :
         {SchedPolicy::StaticChunk, SchedPolicy::BlockCyclic,
          SchedPolicy::Dynamic}) {
        ExecConfig xc;
        xc.sched = pol;
        auto [hw, ha] = runMode(loop, ExecMode::HW, 8, xc);
        EXPECT_TRUE(hw.passed) << schedPolicyName(pol);
        EXPECT_EQ(hw.itersExecuted, 128u);
    }
}

TEST(Executor, MaxItersCapsTheRun)
{
    Fig1CLoop loop(256, 1024, true, 3);
    ExecConfig xc;
    xc.maxIters = 100;
    auto [hw, ha] = runMode(loop, ExecMode::HW, 8, xc);
    EXPECT_EQ(hw.itersExecuted, 100u);
}

TEST(Executor, NodesMaterializeTablePagesOnlyForTheirOwnLines)
{
    // A reduced P3m on the paper's 16 nodes: every node holds a
    // private copy of both workspaces, homed locally, and the shared
    // arrays are spread round-robin.
    P3mParams pp;
    pp.iters = 256;
    pp.posElems = 4096;
    P3mLoop loop(pp);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor exec(machine(16), loop, xc);
    RunResult res = exec.run();
    ASSERT_TRUE(res.passed);

    const AddrMap &mem = exec.machine().memory();
    const SpecSystem &spec = *exec.specSystem();
    const std::vector<TestRange> &ranges = spec.table().allRanges();
    ASSERT_EQ(ranges.size(), 34u);
    // Ranges own ascending, disjoint slot spans.
    auto range_of = [&](size_t slot) {
        const TestRange *r = &ranges.front();
        for (const TestRange &c : ranges) {
            if (c.elemOffset <= slot)
                r = &c;
        }
        return r;
    };

    for (NodeId n = 0; n < 16; ++n) {
        size_t dir_pages = 0;
        exec.machine().dirCtrl(n).directory().forEachPage(
            [&](Addr line) {
                ++dir_pages;
                ASSERT_NE(mem.find(line), nullptr) << "directory of " << n;
                EXPECT_EQ(mem.homeOf(line), n) << "directory of " << n;
            });
        EXPECT_GT(dir_pages, 0u);

        size_t own_copy_pages = 0;
        spec.cacheUnit(n).forEachPage([&](size_t slot) {
            const TestRange *r = range_of(slot);
            ASSERT_EQ(r->role, PrivRole::PrivateCopy);
            EXPECT_EQ(r->owner, n) << "cache unit of " << n;
            ++own_copy_pages;
        });
        EXPECT_GT(own_copy_pages, 0u);

        spec.dirUnit(n).forEachPage([&](size_t slot) {
            const TestRange *r = range_of(slot);
            EXPECT_EQ(mem.homeOf(r->elemAt(slot)), n)
                << "directory unit of " << n;
        });
    }
}
