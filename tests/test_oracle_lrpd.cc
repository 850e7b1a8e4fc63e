/**
 * @file
 * Tests of the dependence oracle and the reference LRPD software
 * test, centered on the paper's worked example (Figure 2) and the
 * marking subtleties of section 2.2.2.
 */

#include <gtest/gtest.h>

#include "lrpd/lrpd.hh"
#include "sim/random.hh"
#include "spec/oracle.hh"

using namespace specrt;

namespace
{

/**
 * The Figure 2 loop's accesses (1-based elements mapped to 0-based):
 *   do i = 1,5:  z = A(K(i));  if (B1(i)) A(L(i)) = z + C(i)
 *   K = (1,2,3,4,1), L = (2,2,4,4,2), B1 = (T,F,T,F,T)
 */
std::vector<AccessEvent>
fig2Trace()
{
    int64_t K[] = {0, 1, 2, 3, 4, 1};
    int64_t L[] = {0, 2, 2, 4, 4, 2};
    bool B1[] = {false, true, false, true, false, true};
    std::vector<AccessEvent> t;
    for (IterNum i = 1; i <= 5; ++i) {
        t.push_back({0, i, static_cast<uint64_t>(K[i] - 1), false, 0});
        if (B1[i])
            t.push_back(
                {0, i, static_cast<uint64_t>(L[i] - 1), true, 0});
    }
    return t;
}

} // namespace

TEST(Fig2, MatchesThePaperChart)
{
    // The paper's chart (5 iterations): Aw = (0 1 0 1 0)...
    // In the published figure only elements 1..4 are shown with
    // Aw = (0 1 0 1), Ar = (1 1 1 1), Anp = (1 1 1 1), Atw = 3,
    // Atm = 2, and the test fails.
    LrpdAnalysis a = LrpdTest::run(fig2Trace(), 5, 1, true, false);
    EXPECT_EQ(a.atw, 3u);
    EXPECT_EQ(a.atm, 2u);
    EXPECT_TRUE(a.awAndAr);
    EXPECT_EQ(a.verdict, LrpdVerdict::NotParallel);
}

TEST(Fig2, OracleAgreesLoopIsNotParallel)
{
    EXPECT_EQ(Oracle::lrpd(fig2Trace()), LrpdVerdict::NotParallel);
    EXPECT_FALSE(Oracle::privParallel(fig2Trace()));
}

TEST(Lrpd, DisjointWritesAreDoall)
{
    std::vector<AccessEvent> t;
    for (IterNum i = 1; i <= 8; ++i) {
        t.push_back({0, i, static_cast<uint64_t>(i - 1), false, 0});
        t.push_back({0, i, static_cast<uint64_t>(i - 1), true, 0});
    }
    LrpdAnalysis a = LrpdTest::run(t, 8, 1, false, false);
    EXPECT_EQ(a.verdict, LrpdVerdict::Doall);
    EXPECT_EQ(a.atw, a.atm);
}

TEST(Lrpd, WorkspacePatternNeedsPrivatization)
{
    // Every iteration writes then reads element 0.
    std::vector<AccessEvent> t;
    for (IterNum i = 1; i <= 8; ++i) {
        t.push_back({0, i, 0, true, 0});
        t.push_back({0, i, 0, false, 0});
    }
    LrpdAnalysis priv = LrpdTest::run(t, 1, 1, true, false);
    EXPECT_EQ(priv.verdict, LrpdVerdict::DoallWithPriv);
    // Without privatization the loop, as executed, is not a doall.
    LrpdAnalysis nopriv = LrpdTest::run(t, 1, 1, false, false);
    EXPECT_EQ(nopriv.verdict, LrpdVerdict::NotParallel);
}

TEST(Lrpd, ReadBeforeWritePatternIsNotPrivatizable)
{
    // Read then write in each iteration: Anp fires.
    std::vector<AccessEvent> t;
    for (IterNum i = 1; i <= 4; ++i) {
        t.push_back({0, i, 0, false, 0});
        t.push_back({0, i, 0, true, 0});
    }
    LrpdAnalysis a = LrpdTest::run(t, 1, 1, true, false);
    EXPECT_EQ(a.verdict, LrpdVerdict::NotParallel);
    EXPECT_TRUE(a.awAndAnp);
    EXPECT_FALSE(a.awAndAr); // the reads were covered ("after")
}

TEST(Lrpd, CancelOnlyAffectsCurrentIteration)
{
    // Iteration 3 reads e (uncovered). Iteration 5 reads then
    // writes e: the write must cancel only iteration 5's Ar mark,
    // not iteration 3's.
    std::vector<AccessEvent> t = {
        {0, 3, 0, false, 0},
        {0, 5, 0, false, 0},
        {0, 5, 0, true, 0},
    };
    LrpdAnalysis a = LrpdTest::run(t, 1, 1, true, false);
    EXPECT_TRUE(a.awAndAr);
    EXPECT_EQ(a.verdict, LrpdVerdict::NotParallel);
    EXPECT_EQ(Oracle::lrpd(t), LrpdVerdict::NotParallel);
}

TEST(Lrpd, ReadOnlyArrayIsDoall)
{
    std::vector<AccessEvent> t;
    for (IterNum i = 1; i <= 10; ++i)
        t.push_back({0, i, static_cast<uint64_t>(i % 3), false, 0});
    EXPECT_EQ(LrpdTest::run(t, 3, 1, false, false).verdict,
              LrpdVerdict::Doall);
}

TEST(Lrpd, ProcWiseSavesAdjacentDependences)
{
    // Iterations 1 and 2 both write element 0; iteration 2 also
    // reads it. Iteration-wise: fail. Processor-wise with both
    // iterations on processor 0: pass.
    std::vector<AccessEvent> t = {
        {0, 1, 0, true, 0},
        {0, 2, 0, false, 0},
        {0, 2, 0, true, 0},
    };
    EXPECT_EQ(LrpdTest::run(t, 1, 2, false, false).verdict,
              LrpdVerdict::NotParallel);
    EXPECT_EQ(LrpdTest::run(t, 1, 2, false, true).verdict,
              LrpdVerdict::Doall);
    EXPECT_EQ(Oracle::lrpd(t), LrpdVerdict::NotParallel);
    EXPECT_EQ(Oracle::lrpdProcWise(t), LrpdVerdict::Doall);
}

TEST(Lrpd, ProcWiseStillFailsCrossProcessor)
{
    std::vector<AccessEvent> t = {
        {0, 1, 0, true, 0},
        {1, 2, 0, false, 0},
    };
    EXPECT_EQ(LrpdTest::run(t, 1, 2, false, true).verdict,
              LrpdVerdict::NotParallel);
    EXPECT_EQ(Oracle::lrpdProcWise(t), LrpdVerdict::NotParallel);
}

TEST(Lrpd, MechanicalMarkingMatchesOracleOnRandomTraces)
{
    Rng rng(123);
    for (int round = 0; round < 200; ++round) {
        int procs = 1 + static_cast<int>(rng.nextBounded(4));
        std::vector<AccessEvent> t;
        for (IterNum i = 1; i <= 12; ++i) {
            NodeId p = static_cast<NodeId>(rng.nextBounded(procs));
            for (int a = 0; a < 3; ++a)
                t.push_back({p, i, rng.nextBounded(5),
                             rng.nextBool(0.4), 0});
        }
        EXPECT_EQ(LrpdTest::run(t, 5, procs, true, false).verdict,
                  Oracle::lrpd(t))
            << "round " << round;
        EXPECT_EQ(LrpdTest::run(t, 5, procs, true, true).verdict,
                  Oracle::lrpdProcWise(t))
            << "round " << round;
    }
}

TEST(Oracle, PrivAcceptsWhatLrpdPrivAccepts)
{
    // Anything the basic privatizing LRPD accepts, the read-in
    // capable hardware test must also accept (it is strictly more
    // aggressive, section 3.3).
    Rng rng(321);
    for (int round = 0; round < 200; ++round) {
        std::vector<AccessEvent> t;
        for (IterNum i = 1; i <= 10; ++i) {
            for (int a = 0; a < 3; ++a)
                t.push_back({0, i, rng.nextBounded(4),
                             rng.nextBool(0.4), 0});
        }
        LrpdVerdict v = Oracle::lrpd(t);
        if (v != LrpdVerdict::NotParallel) {
            EXPECT_TRUE(Oracle::privParallel(t)) << "round " << round;
        }
    }
}

TEST(Oracle, NonPrivIsProcessorWise)
{
    // The hardware non-privatization test allows same-processor
    // cross-iteration reuse that the iteration-wise LRPD flags.
    std::vector<AccessEvent> t = {
        {2, 1, 0, true, 0},
        {2, 5, 0, false, 0},
    };
    EXPECT_TRUE(Oracle::nonPrivParallel(t));
    EXPECT_EQ(Oracle::lrpd(t), LrpdVerdict::NotParallel);
}

TEST(Oracle, VerdictNamesAreStable)
{
    EXPECT_STREQ(lrpdVerdictName(LrpdVerdict::Doall), "Doall");
    EXPECT_STREQ(lrpdVerdictName(LrpdVerdict::DoallWithPriv),
                 "DoallWithPriv");
    EXPECT_STREQ(lrpdVerdictName(LrpdVerdict::NotParallel),
                 "NotParallel");
}
