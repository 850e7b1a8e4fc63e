/**
 * @file
 * Integration tests of the DASH-like protocol: latency composition
 * (the paper's 1/12/60/208/291-cycle round trips), state
 * transitions, forwarding, writebacks, invalidations, races, and
 * global coherence invariants.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mem/dsm.hh"
#include "sim/random.hh"

using namespace specrt;

namespace
{

struct Machine
{
    MachineConfig cfg;
    std::unique_ptr<DsmSystem> dsm;
    const Region *r = nullptr;

    explicit Machine(int procs = 4, Placement pl = Placement::Fixed,
                     NodeId home = 0)
    {
        cfg.numProcs = procs;
        dsm = std::make_unique<DsmSystem>(cfg);
        // Large enough that an 8192-line-distant conflict address maps.
        int id = dsm->memory().alloc("A", 1024 * 1024 + 4096, 4, pl, home);
        r = &dsm->memory().region(id);
        for (uint64_t e = 0; e < r->numElems(); ++e)
            dsm->memory().write(r->elemAddr(e), 4, e + 100);
    }

    EventQueue &eq() { return dsm->eventQueue(); }

    /** Blocking load; returns (value, round-trip latency). */
    std::pair<uint64_t, Tick>
    load(NodeId n, Addr a)
    {
        uint64_t value = 0;
        Tick t0 = eq().curTick();
        Tick t1 = t0;
        bool done = false;
        dsm->cacheCtrl(n).load(a, 4, 1, [&](uint64_t v) {
            value = v;
            t1 = eq().curTick();
            done = true;
        });
        eq().run();
        EXPECT_TRUE(done);
        return {value, t1 - t0};
    }

    /** Store and drain the write buffer. */
    void
    store(NodeId n, Addr a, uint64_t v)
    {
        ASSERT_TRUE(dsm->cacheCtrl(n).store(a, 4, v, 1));
        eq().run();
        EXPECT_TRUE(dsm->cacheCtrl(n).quiescent());
    }

    LineState
    stateAt(NodeId n, Addr a)
    {
        const L2Set *line =
            dsm->cacheCtrl(n).cacheArray().findLine(a);
        return line ? line->state : LineState::Invalid;
    }

    /** Global single-writer / dir-consistency invariants. */
    void
    checkCoherence(Addr a)
    {
        Addr line = dsm->cacheCtrl(0).cacheArray().lineAlign(a);
        int dirty_nodes = 0;
        NodeId dirty_at = invalidNode;
        for (NodeId n = 0; n < cfg.numProcs; ++n) {
            LineState s = stateAt(n, line);
            if (s == LineState::Dirty) {
                ++dirty_nodes;
                dirty_at = n;
            }
        }
        EXPECT_LE(dirty_nodes, 1) << "two dirty copies of a line";
        const DirEntry *e =
            dsm->dirCtrl(dsm->memory().homeOf(line))
                .directory()
                .find(line);
        if (dirty_nodes == 1) {
            ASSERT_NE(e, nullptr);
            EXPECT_EQ(e->state, DirState::Dirty);
            EXPECT_EQ(e->owner, dirty_at);
        }
        if (e && e->state == DirState::Shared) {
            for (NodeId n = 0; n < cfg.numProcs; ++n) {
                if (stateAt(n, line) != LineState::Invalid) {
                    EXPECT_TRUE(e->isSharer(n))
                        << "holder not in sharer set";
                }
            }
        }
    }
};

} // namespace

TEST(DsmLatency, L1HitIsOneCycle)
{
    Machine m;
    m.load(1, m.r->base);              // warm
    auto [v, lat] = m.load(1, m.r->base);
    EXPECT_EQ(lat, 1u);
    EXPECT_EQ(v, 100u);
}

TEST(DsmLatency, L2HitIsTwelveCycles)
{
    Machine m;
    m.load(1, m.r->base);
    // Displace only the L1 entry: L1 has 512 sets, L2 8192; a line
    // 512 lines away shares the L1 set but not the L2 set.
    m.load(1, m.r->base + 512 * 64);
    auto [v, lat] = m.load(1, m.r->base);
    EXPECT_EQ(lat, 12u);
    EXPECT_EQ(v, 100u);
}

TEST(DsmLatency, LocalMemoryIsSixtyCycles)
{
    Machine m;
    auto [v, lat] = m.load(0, m.r->base); // home is node 0
    EXPECT_EQ(lat, 60u);
    EXPECT_EQ(v, 100u);
}

TEST(DsmLatency, RemoteCleanIsTwoHops208)
{
    Machine m;
    auto [v, lat] = m.load(2, m.r->base); // requester != home, clean
    EXPECT_EQ(lat, 208u);
    EXPECT_EQ(v, 100u);
}

TEST(DsmLatency, RemoteDirtyIsThreeHops291)
{
    Machine m;
    m.store(1, m.r->base, 777);          // dirty at node 1
    auto [v, lat] = m.load(2, m.r->base); // 2 -> home 0 -> owner 1 -> 2
    EXPECT_EQ(lat, 291u);
    EXPECT_EQ(v, 777u);
    m.checkCoherence(m.r->base);
}

TEST(DsmProtocol, ReadSharesAcrossNodes)
{
    Machine m;
    m.load(1, m.r->base);
    m.load(2, m.r->base);
    EXPECT_EQ(m.stateAt(1, m.r->base), LineState::Shared);
    EXPECT_EQ(m.stateAt(2, m.r->base), LineState::Shared);
    m.checkCoherence(m.r->base);
}

TEST(DsmProtocol, WriteInvalidatesSharers)
{
    Machine m;
    m.load(1, m.r->base);
    m.load(2, m.r->base);
    m.load(3, m.r->base);
    m.store(2, m.r->base, 555);
    EXPECT_EQ(m.stateAt(2, m.r->base), LineState::Dirty);
    EXPECT_EQ(m.stateAt(1, m.r->base), LineState::Invalid);
    EXPECT_EQ(m.stateAt(3, m.r->base), LineState::Invalid);
    m.checkCoherence(m.r->base);
    auto [v, lat] = m.load(2, m.r->base);
    EXPECT_EQ(v, 555u);
    EXPECT_EQ(lat, 1u);
}

TEST(DsmProtocol, ReadOfDirtyLineDowngradesOwner)
{
    Machine m;
    m.store(1, m.r->base, 42);
    m.load(3, m.r->base);
    EXPECT_EQ(m.stateAt(1, m.r->base), LineState::Shared);
    EXPECT_EQ(m.stateAt(3, m.r->base), LineState::Shared);
    // The sharing writeback refreshed memory.
    EXPECT_EQ(m.dsm->memory().read(m.r->base, 4), 42u);
    m.checkCoherence(m.r->base);
}

TEST(DsmProtocol, WriteOfDirtyLineTransfersOwnership)
{
    Machine m;
    m.store(1, m.r->base, 42);
    m.store(3, m.r->base, 43);
    EXPECT_EQ(m.stateAt(1, m.r->base), LineState::Invalid);
    EXPECT_EQ(m.stateAt(3, m.r->base), LineState::Dirty);
    m.checkCoherence(m.r->base);
    auto [v, lat] = m.load(3, m.r->base);
    EXPECT_EQ(v, 43u);
    (void)lat;
}

TEST(DsmProtocol, UpgradeFromSharedKeepsData)
{
    Machine m;
    m.load(1, m.r->base + 4);
    m.store(1, m.r->base + 4, 999);
    EXPECT_EQ(m.stateAt(1, m.r->base), LineState::Dirty);
    // Neighbouring word in the line kept its memory value.
    auto [v, lat] = m.load(1, m.r->base);
    EXPECT_EQ(v, 100u);
    (void)lat;
}

TEST(DsmProtocol, EvictionWritesBackDirtyData)
{
    Machine m;
    m.store(1, m.r->base, 4242);
    // Fill the same L2 set with a conflicting line: 8192 lines away.
    m.load(1, m.r->base + 8192 * 64);
    m.eq().run();
    EXPECT_EQ(m.stateAt(1, m.r->base), LineState::Invalid);
    EXPECT_EQ(m.dsm->memory().read(m.r->base, 4), 4242u);
    const DirEntry *e = m.dsm->dirCtrl(0).directory().find(m.r->base);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Uncached);
    // The line can be fetched again, with the written data.
    auto [v, lat] = m.load(2, m.r->base);
    EXPECT_EQ(v, 4242u);
    EXPECT_EQ(lat, 208u); // clean again
}

TEST(DsmProtocol, ConcurrentWritesSerializeAtHome)
{
    Machine m;
    // Issue two stores to the same line from different nodes in the
    // same cycle; the directory must serialize them and end with one
    // owner.
    ASSERT_TRUE(m.dsm->cacheCtrl(1).store(m.r->base, 4, 11, 1));
    ASSERT_TRUE(m.dsm->cacheCtrl(2).store(m.r->base, 4, 22, 1));
    m.eq().run();
    m.checkCoherence(m.r->base);
    int dirty = (m.stateAt(1, m.r->base) == LineState::Dirty) +
                (m.stateAt(2, m.r->base) == LineState::Dirty);
    EXPECT_EQ(dirty, 1);
    // The final value is whichever write was serialized second.
    auto [v, lat] = m.load(3, m.r->base);
    EXPECT_TRUE(v == 11 || v == 22);
    (void)lat;
}

TEST(DsmProtocol, ConcurrentReadAndWriteSameLine)
{
    Machine m;
    uint64_t rv = 0;
    bool rdone = false;
    m.dsm->cacheCtrl(3).load(m.r->base, 4, 1, [&](uint64_t v) {
        rv = v;
        rdone = true;
    });
    ASSERT_TRUE(m.dsm->cacheCtrl(1).store(m.r->base, 4, 321, 1));
    m.eq().run();
    EXPECT_TRUE(rdone);
    EXPECT_TRUE(rv == 100 || rv == 321);
    m.checkCoherence(m.r->base);
}

TEST(DsmProtocol, WriteBufferAbsorbsStores)
{
    Machine m;
    CacheCtrl &cc = m.dsm->cacheCtrl(1);
    // Distinct lines so each store needs its own transaction.
    int accepted = 0;
    for (int i = 0; i < m.cfg.writeBufferEntries; ++i)
        accepted += cc.store(m.r->base + i * 64, 4, i, 1);
    EXPECT_EQ(accepted, m.cfg.writeBufferEntries);
    // Buffer is now full.
    EXPECT_FALSE(cc.store(m.r->base + 999 * 64, 4, 1, 1));
    m.eq().run();
    EXPECT_TRUE(cc.quiescent());
    for (int i = 0; i < m.cfg.writeBufferEntries; ++i)
        EXPECT_EQ(m.stateAt(1, m.r->base + i * 64), LineState::Dirty);
}

TEST(DsmProtocol, LoadBlocksBehindBufferedStoreToSameLine)
{
    Machine m;
    CacheCtrl &cc = m.dsm->cacheCtrl(1);
    ASSERT_TRUE(cc.store(m.r->base, 4, 606, 1));
    uint64_t v = 0;
    bool done = false;
    cc.load(m.r->base, 4, 1, [&](uint64_t val) {
        v = val;
        done = true;
    });
    m.eq().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(v, 606u); // sees its own store
}

TEST(DsmProtocol, RoundRobinPlacementSpreadsHomes)
{
    Machine m(4, Placement::RoundRobin);
    std::set<NodeId> homes;
    for (int page = 0; page < 4; ++page)
        homes.insert(
            m.dsm->memory().homeOf(m.r->base + page * m.cfg.pageBytes));
    EXPECT_EQ(homes.size(), 4u);
    // Data is reachable wherever it lives.
    for (int page = 0; page < 4; ++page) {
        Addr a = m.r->base + page * m.cfg.pageBytes;
        auto [v, lat] = m.load(1, a);
        EXPECT_EQ(v, (a - m.r->base) / 4 + 100);
        (void)lat;
    }
}

TEST(DsmProtocol, ResetMachineCommitsDirtyLines)
{
    Machine m;
    m.store(1, m.r->base, 8080);
    m.dsm->resetMachine(true);
    EXPECT_EQ(m.dsm->memory().read(m.r->base, 4), 8080u);
    EXPECT_EQ(m.stateAt(1, m.r->base), LineState::Invalid);
    auto [v, lat] = m.load(1, m.r->base);
    EXPECT_EQ(v, 8080u);
    EXPECT_EQ(lat, 208u); // caches cold again (home is node 0)
}

TEST(DsmProtocol, ResetMachineDiscardsWhenAborting)
{
    Machine m;
    m.store(1, m.r->base, 7070);
    m.dsm->resetMachine(false);
    EXPECT_EQ(m.dsm->memory().read(m.r->base, 4), 100u);
}

TEST(DsmProtocol, ManyNodesHammerOneLine)
{
    Machine m(8);
    for (int round = 0; round < 4; ++round) {
        for (NodeId n = 0; n < 8; ++n) {
            m.store(n, m.r->base, n * 10 + round);
            m.checkCoherence(m.r->base);
        }
        for (NodeId n = 0; n < 8; ++n) {
            auto [v, lat] = m.load(n, m.r->base);
            EXPECT_EQ(v, 70u + round); // last writer was node 7
            (void)lat;
        }
        m.checkCoherence(m.r->base);
    }
}

TEST(DsmProtocol, DataIntegrityUnderMixedTraffic)
{
    Machine m(4);
    // Interleave stores/loads from all nodes over several lines and
    // check final memory equals a sequential model.
    std::map<Addr, uint64_t> model;
    Rng rng(3);
    for (int step = 0; step < 200; ++step) {
        NodeId n = static_cast<NodeId>(rng.nextBounded(4));
        Addr a = m.r->elemAddr(rng.nextBounded(64));
        if (rng.nextBool(0.5)) {
            uint64_t v = rng.next() & 0xffffffff;
            m.store(n, a, v); // drains fully, so ordering is defined
            model[a] = v;
        } else {
            auto [v, lat] = m.load(n, a);
            uint64_t expect = model.count(a)
                                  ? model[a]
                                  : (a - m.r->base) / 4 + 100;
            EXPECT_EQ(v, expect);
            (void)lat;
        }
    }
    m.dsm->resetMachine(true);
    for (auto &[a, v] : model)
        EXPECT_EQ(m.dsm->memory().read(a, 4), v);
}
