/**
 * @file
 * Differential tests of the software scheme's verdicts: the executor
 * marks each tested array's LRPD shadows from the loop's accesses as
 * they happen, and checks reduction arrays the same way. Every field
 * of every verdict must equal the reference LRPD test (LrpdTest::run)
 * and the reference reduction check (Oracle::reductionValid) run over
 * the loop's recorded access trace.
 */

#include <gtest/gtest.h>

#include "core/loop_exec.hh"
#include "lrpd/lrpd.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/** The trace's accesses to declared array @p decl, in trace order. */
std::vector<AccessEvent>
accessesTo(const std::vector<AccessEvent> &trace, int decl)
{
    std::vector<AccessEvent> out;
    for (const AccessEvent &ev : trace) {
        if (ev.arrayId == decl)
            out.push_back(ev);
    }
    return out;
}

/** Final contents of shared array @p decl. */
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

/**
 * Run @p w under SW with the trace kept, and check every per-array
 * verdict against LrpdTest::run over that array's traced accesses.
 * Also checks that final memory matches a Serial run, for every
 * array whose shared copy holds the loop's result (privatized
 * arrays that are not live-out keep their initial values).
 */
RunResult
runAndCompare(Workload &w, ExecConfig xc, int procs = 8)
{
    MachineConfig cfg;
    cfg.numProcs = procs;

    ExecConfig sxc;
    sxc.mode = ExecMode::Serial;
    LoopExecutor serial(cfg, w, sxc);
    serial.run();

    xc.mode = ExecMode::SW;
    xc.keepTrace = true;
    LoopExecutor exec(cfg, w, xc);
    RunResult res = exec.run();

    std::vector<ArrayDecl> decls = w.arrays();
    size_t compared = 0;
    for (size_t i = 0; i < decls.size(); ++i) {
        int d = static_cast<int>(i);
        TestType t = decls[i].test;
        if (xc.downgradePrivToNonPriv && t == TestType::Priv)
            t = TestType::NonPriv;
        if (t != TestType::NonPriv && t != TestType::Priv) {
            EXPECT_EQ(res.swAnalyses.count(d), 0u) << decls[i].name;
            continue;
        }
        std::vector<AccessEvent> sub = accessesTo(res.trace, d);
        EXPECT_FALSE(sub.empty()) << decls[i].name;
        bool privatized = t == TestType::Priv;
        bool read_in = xc.swReadIn && !xc.swProcWise && privatized;
        LrpdAnalysis want =
            LrpdTest::run(sub, decls[i].elems, procs, privatized,
                          xc.swProcWise, read_in);
        auto it = res.swAnalyses.find(d);
        if (it == res.swAnalyses.end()) {
            ADD_FAILURE() << "no SW verdict for " << decls[i].name;
            continue;
        }
        const LrpdAnalysis &got = it->second;
        EXPECT_EQ(got.verdict, want.verdict) << decls[i].name;
        EXPECT_EQ(got.atw, want.atw) << decls[i].name;
        EXPECT_EQ(got.atm, want.atm) << decls[i].name;
        EXPECT_EQ(got.awAndAr, want.awAndAr) << decls[i].name;
        EXPECT_EQ(got.awAndAnp, want.awAndAnp) << decls[i].name;
        EXPECT_EQ(got.r1stAfterWmin, want.r1stAfterWmin)
            << decls[i].name;
        ++compared;
    }
    EXPECT_GT(compared, 0u);
    EXPECT_EQ(res.swAnalyses.size(), compared);

    for (size_t i = 0; i < decls.size(); ++i) {
        if (decls[i].test == TestType::Priv && !decls[i].liveOut)
            continue;
        int d = static_cast<int>(i);
        EXPECT_EQ(finalArray(exec, d), finalArray(serial, d))
            << decls[i].name;
    }
    return res;
}

} // namespace

TEST(LrpdOnline, IterationWiseNonPrivAndPrivArrays)
{
    // Fig. 1(b): A under the non-privatization test, tmp privatized.
    Fig1BLoop loop(64);
    ExecConfig xc;
    RunResult res = runAndCompare(loop, xc);
    EXPECT_TRUE(res.passed);
    EXPECT_EQ(res.swAnalyses.at(1).verdict, LrpdVerdict::DoallWithPriv);
}

TEST(LrpdOnline, ProcessorWiseNonPrivAndPrivArrays)
{
    Fig1BLoop loop(64);
    ExecConfig xc;
    xc.swProcWise = true;
    runAndCompare(loop, xc);
}

TEST(LrpdOnline, ProcessorWiseDisjointLoopPasses)
{
    Fig1CLoop loop(256, 1024, /*disjoint=*/true, 5);
    ExecConfig xc;
    xc.swProcWise = true;
    RunResult res = runAndCompare(loop, xc);
    EXPECT_TRUE(res.passed);
}

TEST(LrpdOnline, ReadInVariant)
{
    Fig3Loop loop(Fig3Kind::ReadInNeeded, 32);
    ExecConfig xc;
    xc.swReadIn = true;
    RunResult res = runAndCompare(loop, xc);
    EXPECT_TRUE(res.passed);

    Fig3Loop flow(Fig3Kind::FlowDep, 32);
    RunResult fres = runAndCompare(flow, xc);
    EXPECT_FALSE(fres.passed);
    EXPECT_TRUE(fres.swAnalyses.at(0).r1stAfterWmin);
}

TEST(LrpdOnline, FailingLoops)
{
    Fig1ALoop flow(64);
    ExecConfig xc;
    RunResult res = runAndCompare(flow, xc);
    EXPECT_FALSE(res.passed);
    EXPECT_EQ(res.swAnalyses.at(0).verdict, LrpdVerdict::NotParallel);

    // The forced-failure scenario: tmp under the non-privatization
    // test.
    Fig1BLoop loop(64);
    xc.downgradePrivToNonPriv = true;
    RunResult down = runAndCompare(loop, xc);
    EXPECT_FALSE(down.passed);
}

TEST(LrpdOnline, RandomLoopsBothTestsBothGranularities)
{
    size_t passed = 0, failed = 0;
    for (TestType test : {TestType::NonPriv, TestType::Priv}) {
        for (bool proc_wise : {false, true}) {
            // A window of 1 keeps iterations on disjoint elements;
            // wider windows make them collide.
            for (uint64_t window : {1, 4, 32, 256}) {
                RandomLoopParams p;
                p.test = test;
                p.seed = window;
                p.window = window;
                RandomLoop loop(p);
                ExecConfig xc;
                xc.swProcWise = proc_wise;
                RunResult res = runAndCompare(loop, xc, 4);
                (res.passed ? passed : failed) += 1;
            }
        }
    }
    // Both outcomes are exercised.
    EXPECT_GT(passed, 0u);
    EXPECT_GT(failed, 0u);
}

TEST(LrpdOnline, ReductionCheckMatchesOracle)
{
    for (IterNum rogue : {IterNum(0), IterNum(5)}) {
        HistogramParams p;
        p.iters = 64;
        p.rogueIter = rogue;
        HistogramLoop loop(p);
        MachineConfig cfg;
        cfg.numProcs = 8;
        ExecConfig xc;
        xc.mode = ExecMode::SW;
        xc.keepTrace = true;
        LoopExecutor exec(cfg, loop, xc);
        RunResult res = exec.run();
        std::vector<AccessEvent> bins = accessesTo(res.trace, 0);
        ASSERT_FALSE(bins.empty());
        EXPECT_EQ(res.passed, Oracle::reductionValid(bins))
            << "rogue iteration " << rogue;
        EXPECT_EQ(res.passed, rogue == 0);
    }
}

TEST(LrpdOnline, TraceIsEmptyUnlessKept)
{
    Fig1BLoop loop(64);
    MachineConfig cfg;
    cfg.numProcs = 8;
    ExecConfig xc;
    xc.mode = ExecMode::SW;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();
    EXPECT_TRUE(res.passed);
    EXPECT_EQ(res.swAnalyses.size(), 2u);
    EXPECT_TRUE(res.trace.empty());
}
