/**
 * @file
 * Tests of the non-privatization algorithm's pure transition logic
 * (paper Figures 4, 6, 7), branch by branch, plus a property test:
 * replaying any access trace through the directory-side logic yields
 * PASS iff the oracle says every element is read-only or
 * single-processor.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "spec/nonpriv.hh"
#include "spec/oracle.hh"
#include "sim/random.hh"

using namespace specrt;

// ---- cache side: Fig. 6(a) ------------------------------------------

TEST(NPCache, FirstReadSetsOwnAndInformsHome)
{
    NPTagBits t;
    NPCacheResult r = npCacheRead(t, false);
    EXPECT_FALSE(r.fail);
    EXPECT_TRUE(r.sendFirstUpdate);
    EXPECT_EQ(t.first, TagFirst::Own);
}

TEST(NPCache, FirstReadOnDirtyLineSkipsMessage)
{
    NPTagBits t;
    NPCacheResult r = npCacheRead(t, true);
    EXPECT_FALSE(r.fail);
    EXPECT_FALSE(r.sendFirstUpdate);
    EXPECT_EQ(t.first, TagFirst::Own);
}

TEST(NPCache, RepeatReadByOwnerIsSilent)
{
    NPTagBits t;
    npCacheRead(t, false);
    NPCacheResult r = npCacheRead(t, false);
    EXPECT_FALSE(r.fail);
    EXPECT_FALSE(r.sendFirstUpdate);
    EXPECT_FALSE(r.sendROnlyUpdate);
}

TEST(NPCache, ReadAfterOtherReaderSetsROnly)
{
    NPTagBits t;
    t.first = TagFirst::Other;
    NPCacheResult r = npCacheRead(t, false);
    EXPECT_FALSE(r.fail);
    EXPECT_TRUE(r.sendROnlyUpdate);
    EXPECT_TRUE(t.rOnly);
    // Second read: ROnly already set, no more traffic.
    NPCacheResult r2 = npCacheRead(t, false);
    EXPECT_FALSE(r2.sendROnlyUpdate);
}

TEST(NPCache, ReadOfOtherWrittenElementFails)
{
    NPTagBits t;
    t.first = TagFirst::Other;
    t.noShr = true;
    NPCacheResult r = npCacheRead(t, false);
    EXPECT_TRUE(r.fail);
}

// ---- cache side: Fig. 6(c) dirty-write path -------------------------

TEST(NPCache, DirtyWriteSetsOwnNoShrSilently)
{
    NPTagBits t;
    NPCacheResult r = npCacheWriteDirty(t);
    EXPECT_FALSE(r.fail);
    EXPECT_EQ(t.first, TagFirst::Own);
    EXPECT_TRUE(t.noShr);
}

TEST(NPCache, DirtyWriteAfterOtherFails)
{
    NPTagBits t;
    t.first = TagFirst::Other;
    EXPECT_TRUE(npCacheWriteDirty(t).fail);
    NPTagBits t2;
    t2.rOnly = true;
    EXPECT_TRUE(npCacheWriteDirty(t2).fail);
}

// ---- cache side: fills and Fig. 7(g) --------------------------------

TEST(NPCache, LocalApplyIsIdempotent)
{
    NPTagBits t;
    t.first = TagFirst::Own;
    t.noShr = true;
    NPCacheResult r = npCacheLocalApply(t, true);
    EXPECT_FALSE(r.fail);
    EXPECT_EQ(t.first, TagFirst::Own);
    EXPECT_TRUE(t.noShr);
}

TEST(NPCache, LocalApplyReadPromotesNoneToOwn)
{
    NPTagBits t;
    EXPECT_FALSE(npCacheLocalApply(t, false).fail);
    EXPECT_EQ(t.first, TagFirst::Own);
    EXPECT_FALSE(t.noShr);
}

TEST(NPCache, LocalApplyWriteOfForeignElementFails)
{
    NPTagBits t;
    t.first = TagFirst::Other;
    EXPECT_TRUE(npCacheLocalApply(t, true).fail);
}

TEST(NPCache, FirstUpdateFailBounce)
{
    // Fig. 7(g): loser of a First_update race.
    NPTagBits t;
    t.first = TagFirst::Own;
    NPCacheResult r = npCacheFirstUpdateFail(t);
    EXPECT_FALSE(r.fail);
    EXPECT_EQ(t.first, TagFirst::Other);
    EXPECT_TRUE(t.rOnly);
}

TEST(NPCache, FirstUpdateFailAfterWriteFails)
{
    // The loser not only read but also wrote before learning it
    // lost the race.
    NPTagBits t;
    t.first = TagFirst::Own;
    t.noShr = true;
    EXPECT_TRUE(npCacheFirstUpdateFail(t).fail);
}

// ---- directory side: Fig. 6(b)/(d) ----------------------------------

TEST(NPDir, ReadSetsFirstThenROnly)
{
    NPDirBits d;
    EXPECT_FALSE(npDirRead(d, 3).fail);
    EXPECT_EQ(d.first, 3);
    EXPECT_FALSE(d.rOnly);
    EXPECT_FALSE(npDirRead(d, 5).fail);
    EXPECT_TRUE(d.rOnly);
}

TEST(NPDir, ReadOfForeignWrittenElementFails)
{
    NPDirBits d;
    EXPECT_FALSE(npDirWrite(d, 2).fail);
    EXPECT_TRUE(d.noShr);
    EXPECT_TRUE(npDirRead(d, 4).fail);
    // The writer itself may keep reading.
    NPDirBits d2;
    npDirWrite(d2, 2);
    EXPECT_FALSE(npDirRead(d2, 2).fail);
}

TEST(NPDir, WriteAfterForeignAccessFails)
{
    NPDirBits d;
    npDirRead(d, 1);
    EXPECT_TRUE(npDirWrite(d, 2).fail);

    NPDirBits d2;
    npDirRead(d2, 1);
    npDirRead(d2, 2); // sets ROnly
    EXPECT_TRUE(npDirWrite(d2, 1).fail); // even the first reader
}

TEST(NPDir, SingleProcReadWriteSequencePasses)
{
    NPDirBits d;
    EXPECT_FALSE(npDirRead(d, 7).fail);
    EXPECT_FALSE(npDirWrite(d, 7).fail);
    EXPECT_FALSE(npDirRead(d, 7).fail);
    EXPECT_FALSE(npDirWrite(d, 7).fail);
}

// ---- directory side: update races, Fig. 7(f)/(h) --------------------

TEST(NPDir, FirstUpdateRaceBouncesLoser)
{
    NPDirBits d;
    EXPECT_FALSE(npDirFirstUpdate(d, 1).sendFirstUpdateFail);
    NPDirResult r = npDirFirstUpdate(d, 2);
    EXPECT_FALSE(r.fail);
    EXPECT_TRUE(r.sendFirstUpdateFail);
    EXPECT_TRUE(d.rOnly);
    EXPECT_EQ(d.first, 1);
}

TEST(NPDir, FirstUpdateVersusWriteRaceFails)
{
    NPDirBits d;
    npDirWrite(d, 1);
    EXPECT_TRUE(npDirFirstUpdate(d, 2).fail);
    // From the writer itself (in-order pairs make this impossible in
    // the machine, but the logic treats it as benign).
    NPDirBits d2;
    npDirWrite(d2, 1);
    EXPECT_FALSE(npDirFirstUpdate(d2, 1).fail);
}

TEST(NPDir, ROnlyUpdateRaceIsIgnored)
{
    NPDirBits d;
    npDirFirstUpdate(d, 1);
    EXPECT_FALSE(npDirROnlyUpdate(d, 2).fail);
    EXPECT_FALSE(npDirROnlyUpdate(d, 3).fail); // duplicate: ignored
    EXPECT_TRUE(d.rOnly);
}

TEST(NPDir, ROnlyUpdateVersusWriteRaceFails)
{
    NPDirBits d;
    npDirWrite(d, 1);
    EXPECT_TRUE(npDirROnlyUpdate(d, 2).fail);
}

// ---- wire encoding and merge ----------------------------------------

TEST(NPWireCodec, RoundTripsThroughPack)
{
    NPDirBits d;
    d.first = 5;
    d.noShr = true;
    uint32_t wire = npPackDir(d);
    NPTagBits own = npWireToTag(wire, 5);
    EXPECT_EQ(own.first, TagFirst::Own);
    EXPECT_TRUE(own.noShr);
    NPTagBits other = npWireToTag(wire, 6);
    EXPECT_EQ(other.first, TagFirst::Other);
}

TEST(NPWireCodec, TagPackCarriesIdentityForOwn)
{
    NPTagBits t;
    t.first = TagFirst::Own;
    t.rOnly = true;
    uint32_t wire = npPackTag(t, 9);
    NPWire w = npUnpack(wire);
    EXPECT_EQ(w.firstCode, 10u);
    EXPECT_TRUE(w.rOnly);

    t.first = TagFirst::Other;
    EXPECT_EQ(npUnpack(npPackTag(t, 9)).firstCode, npWireFirstOther);
}

TEST(NPWireCodec, CombinePrefersRealIdentity)
{
    // Owner says OTHER (identity unknown); home knows it is node 3.
    NPTagBits t;
    t.first = TagFirst::Other;
    NPDirBits d;
    d.first = 3;
    uint32_t combined = npCombineWire(npPackTag(t, 7), npPackDir(d));
    EXPECT_EQ(npUnpack(combined).firstCode, 4u);
    // The requester (node 3) recognizes itself.
    EXPECT_EQ(npWireToTag(combined, 3).first, TagFirst::Own);
}

TEST(NPWireCodec, CombineOrsFlags)
{
    NPTagBits t;
    t.first = TagFirst::Own;
    t.noShr = true;
    NPDirBits d;
    d.rOnly = true;
    uint32_t combined = npCombineWire(npPackTag(t, 2), npPackDir(d));
    NPWire w = npUnpack(combined);
    EXPECT_TRUE(w.noShr);
    EXPECT_TRUE(w.rOnly);
    EXPECT_EQ(w.firstCode, 3u);
}

TEST(NPDirMerge, OwnBitsInstallIdentity)
{
    NPDirBits d;
    NPTagBits t;
    t.first = TagFirst::Own;
    t.noShr = true;
    EXPECT_FALSE(npDirMergeDirty(d, 4, npPackTag(t, 4)).fail);
    EXPECT_EQ(d.first, 4);
    EXPECT_TRUE(d.noShr);
}

TEST(NPDirMerge, ContradictoryFirstFails)
{
    NPDirBits d;
    d.first = 2;
    NPTagBits t;
    t.first = TagFirst::Own;
    EXPECT_TRUE(npDirMergeDirty(d, 4, npPackTag(t, 4)).fail);
}

TEST(NPDirMerge, WrittenPlusReadSharedFails)
{
    NPDirBits d;
    d.first = 2;
    d.rOnly = true;
    NPTagBits t;
    t.first = TagFirst::Other;
    t.noShr = true;
    EXPECT_TRUE(npDirMergeDirty(d, 4, npPackTag(t, 4)).fail);
}

// ---- property: sequential replay == oracle --------------------------

namespace
{

/** Replay a trace through the directory logic (the serialization
 *  point); report whether any step fails. */
bool
replayPasses(const std::vector<AccessEvent> &trace)
{
    std::map<uint64_t, NPDirBits> dir;
    for (const AccessEvent &e : trace) {
        NPDirResult r = e.isWrite
                            ? npDirWrite(dir[e.elem], e.proc)
                            : npDirRead(dir[e.elem], e.proc);
        if (r.fail)
            return false;
    }
    return true;
}

struct NPPropParams
{
    uint64_t seed;
    int procs;
    int elems;
    int events;
    double write_prob;
};

/** The case's fields as CMake's ctest name shows them after the
 *  gtest name (default: the struct's bytes, padding included). */
void
PrintTo(const NPPropParams &p, std::ostream *os)
{
    *os << "seed " << p.seed << ", " << p.procs << " procs, " << p.elems
        << " elems, " << p.events << " events, write prob "
        << p.write_prob;
}

class NPProperty : public ::testing::TestWithParam<NPPropParams>
{
};

} // namespace

TEST_P(NPProperty, ReplayMatchesOracle)
{
    NPPropParams p = GetParam();
    Rng rng(p.seed);
    for (int round = 0; round < 50; ++round) {
        std::vector<AccessEvent> trace;
        for (int i = 0; i < p.events; ++i) {
            AccessEvent e;
            e.proc = static_cast<NodeId>(rng.nextBounded(p.procs));
            e.iter = static_cast<IterNum>(i + 1);
            e.elem = rng.nextBounded(p.elems);
            e.isWrite = rng.nextBool(p.write_prob);
            trace.push_back(e);
        }
        EXPECT_EQ(replayPasses(trace), Oracle::nonPrivParallel(trace))
            << "seed " << p.seed << " round " << round;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NPProperty,
    ::testing::Values(
        NPPropParams{1, 2, 4, 12, 0.3},   // heavy collisions
        NPPropParams{2, 4, 64, 40, 0.3},  // medium
        NPPropParams{3, 8, 256, 60, 0.1}, // mostly reads
        NPPropParams{4, 8, 256, 60, 0.9}, // mostly writes
        NPPropParams{5, 16, 1024, 100, 0.0}, // read-only: must pass
        NPPropParams{6, 3, 8, 30, 0.5}),
    [](const ::testing::TestParamInfo<NPPropParams> &info) {
        return "Seed" + std::to_string(info.param.seed);
    });

TEST(NPProperty, ReadOnlyAlwaysPasses)
{
    std::vector<AccessEvent> trace;
    for (int i = 0; i < 100; ++i)
        trace.push_back({static_cast<NodeId>(i % 8), i + 1,
                         static_cast<uint64_t>(i % 5), false, 0});
    EXPECT_TRUE(replayPasses(trace));
}

TEST(NPProperty, SingleProcessorAlwaysPasses)
{
    std::vector<AccessEvent> trace;
    Rng rng(99);
    for (int i = 0; i < 200; ++i)
        trace.push_back({3, i + 1, rng.nextBounded(16),
                         rng.nextBool(0.5), 0});
    EXPECT_TRUE(replayPasses(trace));
}
