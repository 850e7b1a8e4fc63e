/**
 * @file
 * Tests of the privatization algorithm's pure transition logic
 * (paper Figures 8 and 9), including read-in/copy-out, plus a
 * property test: replaying any trace through the private/shared
 * directory logic yields PASS iff the oracle's read-first/write
 * time-stamp predicate holds.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "spec/oracle.hh"
#include "spec/priv.hh"
#include "sim/random.hh"

using namespace specrt;

// ---- cache tags: Fig. 8(a) / 9(f) ------------------------------------

TEST(PrivCache, FirstReadIsReadFirst)
{
    PrivTagBits t;
    EXPECT_TRUE(privCacheRead(t, 5).readFirst);
    EXPECT_TRUE(t.read1st);
    EXPECT_FALSE(privCacheRead(t, 5).readFirst); // same iteration
}

TEST(PrivCache, ReadAfterWriteSameIterationIsCovered)
{
    PrivTagBits t;
    privCacheWrite(t, 5);
    EXPECT_FALSE(privCacheRead(t, 5).readFirst);
}

TEST(PrivCache, TagsClearAtIterationBoundary)
{
    PrivTagBits t;
    privCacheWrite(t, 5);
    // Iteration 6 starts: the write bit no longer covers reads.
    EXPECT_TRUE(privCacheRead(t, 6).readFirst);
}

TEST(PrivCache, FirstWritePerIterationSignals)
{
    PrivTagBits t;
    EXPECT_TRUE(privCacheWrite(t, 3).firstWrite);
    EXPECT_FALSE(privCacheWrite(t, 3).firstWrite);
    EXPECT_TRUE(privCacheWrite(t, 4).firstWrite); // new iteration
}

TEST(PrivCache, EffectiveViewHonorsIterTag)
{
    PrivTagBits t{true, true, 7};
    PrivTagBits same = privEffective(t, 7);
    EXPECT_TRUE(same.read1st);
    PrivTagBits later = privEffective(t, 8);
    EXPECT_FALSE(later.read1st);
    EXPECT_FALSE(later.write);
}

// ---- private directory: Fig. 8(b)/(c), 9(g)/(h) ----------------------

TEST(PrivPDir, ReadFirstSignalRecordsIter)
{
    PrivPrivDirBits d;
    privPDirReadFirstSig(d, 9);
    EXPECT_EQ(d.pMaxR1st, 9);
}

TEST(PrivPDir, UntouchedLineReadsIn)
{
    PrivPrivDirBits d;
    PrivPDirResult r = privPDirRead(d, 4, true);
    EXPECT_TRUE(r.needReadIn);
    EXPECT_FALSE(r.readFirst);
}

TEST(PrivPDir, TouchedLineReadDetectsReadFirst)
{
    PrivPrivDirBits d;
    d.pMaxW = 2;
    PrivPDirResult r = privPDirRead(d, 4, false);
    EXPECT_TRUE(r.readFirst);
    EXPECT_EQ(d.pMaxR1st, 4);
    // Already read-first this iteration: no duplicate.
    EXPECT_FALSE(privPDirRead(d, 4, false).readFirst);
}

TEST(PrivPDir, ReadCoveredByThisIterationsWrite)
{
    PrivPrivDirBits d;
    d.pMaxW = 4;
    EXPECT_FALSE(privPDirRead(d, 4, false).readFirst);
}

TEST(PrivPDir, FirstWriteSigForwardsOnlyOnce)
{
    PrivPrivDirBits d;
    EXPECT_TRUE(privPDirFirstWriteSig(d, 3).firstWrite);
    EXPECT_EQ(d.pMaxW, 3);
    EXPECT_FALSE(privPDirFirstWriteSig(d, 5).firstWrite);
    EXPECT_EQ(d.pMaxW, 5);
}

TEST(PrivPDir, WriteMissOnUntouchedLineReadsInForWrite)
{
    PrivPrivDirBits d;
    PrivPDirResult r = privPDirWrite(d, 2, true);
    EXPECT_TRUE(r.needReadIn);
    privPDirReadInDone(d, 2, true);
    EXPECT_EQ(d.pMaxW, 2);
    EXPECT_EQ(d.pMaxR1st, 0);
}

TEST(PrivPDir, WriteMissWithValidDataSignalsFirstWrite)
{
    PrivPrivDirBits d;
    d.pMaxR1st = 1; // some element of the line was read in before
    PrivPDirResult r = privPDirWrite(d, 2, false);
    EXPECT_FALSE(r.needReadIn);
    EXPECT_TRUE(r.firstWrite);
    EXPECT_EQ(d.pMaxW, 2);
}

TEST(PrivPDir, ReadInDoneForReadRecordsReadFirst)
{
    PrivPrivDirBits d;
    privPDirReadInDone(d, 6, false);
    EXPECT_EQ(d.pMaxR1st, 6);
    EXPECT_EQ(d.pMaxW, 0);
}

// ---- shared directory: Fig. 8(d)/(e), 9(i)/(j) -----------------------

TEST(PrivSDir, ReadFirstBeforeAnyWritePasses)
{
    PrivSharedDirBits d;
    EXPECT_FALSE(privSDirReadFirst(d, 10).fail);
    EXPECT_EQ(d.maxR1st, 10);
}

TEST(PrivSDir, ReadFirstAfterEarlierWriteFails)
{
    PrivSharedDirBits d;
    EXPECT_FALSE(privSDirFirstWrite(d, 5).fail);
    EXPECT_FALSE(privSDirReadFirst(d, 5).fail); // same iteration: ok
    EXPECT_FALSE(privSDirReadFirst(d, 3).fail); // earlier: ok
    EXPECT_TRUE(privSDirReadFirst(d, 6).fail);  // later: flow dep
}

TEST(PrivSDir, WriteBeforeLaterReadFirstFails)
{
    PrivSharedDirBits d;
    EXPECT_FALSE(privSDirReadFirst(d, 7).fail);
    EXPECT_FALSE(privSDirFirstWrite(d, 7).fail);  // equal: ok
    EXPECT_FALSE(privSDirFirstWrite(d, 9).fail);  // later: ok
    EXPECT_TRUE(privSDirFirstWrite(d, 4).fail);   // earlier: flow dep
}

TEST(PrivSDir, MinWTracksLowestWriter)
{
    PrivSharedDirBits d;
    privSDirFirstWrite(d, 9);
    privSDirFirstWrite(d, 4);
    EXPECT_EQ(d.minW, 4);
    privSDirFirstWrite(d, 7);
    EXPECT_EQ(d.minW, 4);
}

TEST(PrivSDir, CopyOutArbitratesByIteration)
{
    PrivSharedDirBits d;
    EXPECT_TRUE(privSDirCopyOut(d, 5));
    EXPECT_FALSE(privSDirCopyOut(d, 3)); // older value loses
    EXPECT_TRUE(privSDirCopyOut(d, 8));
    EXPECT_EQ(d.lastCopyIter, 8);
}

// ---- paper Figure 3 shapes -------------------------------------------

TEST(PrivScenario, ReadOnlyPrefixThenWritesPasses)
{
    // Iterations 1..4 read-first; 5..8 write. Parallel with read-in.
    PrivSharedDirBits d;
    for (IterNum i = 1; i <= 4; ++i)
        EXPECT_FALSE(privSDirReadFirst(d, i).fail);
    for (IterNum i = 5; i <= 8; ++i)
        EXPECT_FALSE(privSDirFirstWrite(d, i).fail);
}

TEST(PrivScenario, ReadThenWriteEveryIterationFails)
{
    // do i: ... = A(1); A(1) = ...: iteration 2's read-first sees
    // iteration 1's write.
    PrivSharedDirBits d;
    EXPECT_FALSE(privSDirReadFirst(d, 1).fail);
    EXPECT_FALSE(privSDirFirstWrite(d, 1).fail);
    EXPECT_TRUE(privSDirReadFirst(d, 2).fail);
}

TEST(PrivScenario, WriteBeforeReadEveryIterationPasses)
{
    PrivSharedDirBits d;
    for (IterNum i = 1; i <= 16; ++i)
        EXPECT_FALSE(privSDirFirstWrite(d, i).fail);
    // The reads are covered inside each iteration, so no read-first
    // ever reaches the shared directory.
}

// ---- property: replay == oracle --------------------------------------

namespace
{

/**
 * Replay a trace through per-processor cache tags, private
 * directories, and the shared directory, in trace order.
 */
bool
replayPasses(const std::vector<AccessEvent> &trace, int procs)
{
    std::vector<std::map<uint64_t, PrivTagBits>> tags(procs);
    std::vector<std::map<uint64_t, PrivPrivDirBits>> pdir(procs);
    std::map<uint64_t, PrivSharedDirBits> sdir;

    for (const AccessEvent &e : trace) {
        PrivTagBits &t = tags[e.proc][e.elem];
        PrivPrivDirBits &pd = pdir[e.proc][e.elem];
        if (e.isWrite) {
            PrivCacheResult c = privCacheWrite(t, e.iter);
            if (!c.firstWrite)
                continue;
            PrivPDirResult p = privPDirFirstWriteSig(pd, e.iter);
            if (!p.firstWrite)
                continue;
            if (privSDirFirstWrite(sdir[e.elem], e.iter).fail)
                return false;
        } else {
            PrivCacheResult c = privCacheRead(t, e.iter);
            if (!c.readFirst)
                continue;
            privPDirReadFirstSig(pd, e.iter);
            if (privSDirReadFirst(sdir[e.elem], e.iter).fail)
                return false;
        }
    }
    return true;
}

struct PrivPropParams
{
    uint64_t seed;
    int procs;
    int elems;
    int iters;
    int accesses;
    double write_prob;
};

/** The case's fields as CMake's ctest name shows them after the
 *  gtest name (default: the struct's bytes, padding included). */
void
PrintTo(const PrivPropParams &p, std::ostream *os)
{
    *os << "seed " << p.seed << ", " << p.procs << " procs, " << p.elems
        << " elems, " << p.iters << " iters, " << p.accesses
        << " accesses, write prob " << p.write_prob;
}

class PrivProperty : public ::testing::TestWithParam<PrivPropParams>
{
};

} // namespace

TEST_P(PrivProperty, ReplayMatchesOracle)
{
    PrivPropParams p = GetParam();
    Rng rng(p.seed);
    for (int round = 0; round < 40; ++round) {
        // Build per-iteration access lists, then execute iterations
        // in a random interleaving across processors (each proc runs
        // its iterations in increasing order, as required).
        std::vector<AccessEvent> trace;
        for (IterNum i = 1; i <= p.iters; ++i) {
            NodeId proc =
                static_cast<NodeId>(rng.nextBounded(p.procs));
            for (int a = 0; a < p.accesses; ++a) {
                trace.push_back({proc, i, rng.nextBounded(p.elems),
                                 rng.nextBool(p.write_prob), 0});
            }
        }
        EXPECT_EQ(replayPasses(trace, p.procs),
                  Oracle::privParallel(trace))
            << "seed " << p.seed << " round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PrivProperty,
    ::testing::Values(
        PrivPropParams{11, 2, 3, 8, 3, 0.5},    // heavy collisions
        PrivPropParams{12, 4, 16, 24, 4, 0.3},
        PrivPropParams{13, 8, 64, 40, 4, 0.1},  // mostly reads
        PrivPropParams{14, 8, 8, 40, 2, 0.9},   // mostly writes
        PrivPropParams{15, 4, 4, 16, 5, 0.5},
        PrivPropParams{16, 16, 128, 64, 3, 0.25}),
    [](const ::testing::TestParamInfo<PrivPropParams> &info) {
        return "Seed" + std::to_string(info.param.seed);
    });

TEST(PrivProperty, FirstViolationIndexIsConsistent)
{
    Rng rng(77);
    for (int round = 0; round < 30; ++round) {
        std::vector<AccessEvent> trace;
        for (IterNum i = 1; i <= 16; ++i) {
            for (int a = 0; a < 3; ++a)
                trace.push_back({0, i, rng.nextBounded(4),
                                 rng.nextBool(0.4), 0});
        }
        int64_t idx = Oracle::firstPrivViolation(trace);
        EXPECT_EQ(idx >= 0, !Oracle::privParallel(trace));
        if (idx >= 0) {
            std::vector<AccessEvent> prefix(trace.begin(),
                                            trace.begin() + idx);
            EXPECT_TRUE(Oracle::privParallel(prefix));
        }
    }
}
