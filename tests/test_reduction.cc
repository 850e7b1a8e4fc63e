/**
 * @file
 * End-to-end tests of reduction parallelization (TestType::Reduction):
 * privatized partial accumulators, the post-loop merge, the
 * tagged-access validity check in both the hardware (immediate) and
 * software (post-loop) schemes, and exact agreement with serial
 * execution.
 */

#include <gtest/gtest.h>

#include "core/loop_exec.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

MachineConfig
machine(int procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    return cfg;
}

std::vector<uint64_t>
bins(LoopExecutor &exec)
{
    const Region *r = exec.sharedRegion(0);
    std::vector<uint64_t> out(r->numElems());
    for (uint64_t e = 0; e < r->numElems(); ++e)
        out[e] = exec.machine().memory().read(r->elemAddr(e), 4);
    return out;
}

std::pair<RunResult, std::vector<uint64_t>>
run(Workload &w, ExecMode mode, int procs, ExecConfig xc = {})
{
    xc.mode = mode;
    LoopExecutor exec(machine(procs), w, xc);
    RunResult res = exec.run();
    return {res, bins(exec)};
}

} // namespace

TEST(Reduction, SerialComputesTheHistogram)
{
    HistogramParams p;
    p.iters = 8;
    p.bins = 4;
    p.updates = 1;
    HistogramLoop loop(p);
    auto [res, b] = run(loop, ExecMode::Serial, 1);
    EXPECT_TRUE(res.passed);
    // Sum of weights must be conserved: initial sum + all updates.
    uint64_t total = 0, initial = 0;
    for (uint64_t e = 0; e < 4; ++e) {
        total += b[e];
        initial += 10 * e;
    }
    uint64_t weights = 0;
    for (IterNum i = 1; i <= 8; ++i)
        weights += static_cast<uint64_t>(i % 7 + 1);
    EXPECT_EQ(total, initial + weights);
}

TEST(Reduction, HwMatchesSerialExactly)
{
    HistogramLoop loop;
    auto [sres, sb] = run(loop, ExecMode::Serial, 1);
    auto [hres, hb] = run(loop, ExecMode::HW, 8);
    EXPECT_TRUE(hres.passed) << hres.hwFailure.reason;
    EXPECT_GT(hres.phases.reduction, 0u);
    EXPECT_EQ(hb, sb);
}

TEST(Reduction, IdealAndSwAlsoMergeCorrectly)
{
    HistogramLoop loop;
    auto [sres, sb] = run(loop, ExecMode::Serial, 1);
    auto [ires, ib] = run(loop, ExecMode::Ideal, 8);
    auto [wres, wb] = run(loop, ExecMode::SW, 8);
    EXPECT_TRUE(ires.passed);
    EXPECT_TRUE(wres.passed);
    EXPECT_EQ(ib, sb);
    EXPECT_EQ(wb, sb);
    // No array has LRPD shadows, so there is nothing to zero out and
    // no zero-out barrier to pay.
    EXPECT_EQ(wres.phases.zeroOut, 0u);
}

TEST(Reduction, RogueAccessFailsHwImmediately)
{
    HistogramParams p;
    p.iters = 512;
    p.rogueIter = 16;
    HistogramLoop loop(p);
    auto [sres, sb] = run(loop, ExecMode::Serial, 1);
    ExecConfig xc;
    xc.blockIters = 2;
    auto [hres, hb] = run(loop, ExecMode::HW, 8, xc);
    EXPECT_FALSE(hres.passed);
    EXPECT_NE(hres.hwFailure.reason.find("reduction"),
              std::string::npos);
    // Detected near the rogue iteration, far before loop end.
    EXPECT_LT(hres.itersExecuted, 128u);
    // Restore + serial re-execution produced the serial state.
    EXPECT_EQ(hb, sb);
}

TEST(Reduction, RogueAccessFailsSwAfterTheLoop)
{
    HistogramParams p;
    p.iters = 64;
    p.rogueIter = 5;
    HistogramLoop loop(p);
    auto [sres, sb] = run(loop, ExecMode::Serial, 1);
    auto [wres, wb] = run(loop, ExecMode::SW, 8);
    EXPECT_FALSE(wres.passed);
    EXPECT_EQ(wres.itersExecuted, 64u); // ran everything first
    EXPECT_EQ(wb, sb);
}

TEST(Reduction, MergeAddsPartialsOntoInitialValues)
{
    // One bin, one update per iteration: final value must be the
    // initial value plus every weight, regardless of which
    // processors accumulated what.
    HistogramParams p;
    p.iters = 32;
    p.bins = 2;
    p.updates = 1;
    p.seed = 99;
    HistogramLoop loop(p);
    auto [sres, sb] = run(loop, ExecMode::Serial, 1);
    auto [hres, hb] = run(loop, ExecMode::HW, 4);
    EXPECT_TRUE(hres.passed);
    EXPECT_EQ(hb, sb);
    EXPECT_EQ(hb[0] + hb[1], sb[0] + sb[1]);
}

TEST(Reduction, OracleFlagsUntaggedAccess)
{
    std::vector<AccessEvent> good = {
        {0, 1, 3, false, 0, true},
        {0, 1, 3, true, 0, true},
    };
    EXPECT_TRUE(Oracle::reductionValid(good));
    std::vector<AccessEvent> bad = good;
    bad.push_back({1, 2, 3, false, 0, false});
    EXPECT_FALSE(Oracle::reductionValid(bad));
}

TEST(Reduction, NoBackupIsTakenForReductionArrays)
{
    // The shared array is untouched until the merge, so backup is
    // unnecessary even though the array is declared modified.
    HistogramLoop loop;
    auto [hres, hb] = run(loop, ExecMode::HW, 4);
    EXPECT_TRUE(hres.passed);
    EXPECT_EQ(hres.phases.backup, 0u);
}
