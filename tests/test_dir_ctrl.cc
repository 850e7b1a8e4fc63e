/**
 * @file
 * Directory-controller behavior: per-line serialization, controller
 * occupancy, superseded writebacks (forward served from the
 * writeback buffer), transaction bookkeeping, and the ownership of
 * the requests a home keeps: queued or active, a request costs no
 * allocation once warm, a machine reset frees it, and its reply
 * carries its line however the active set grows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "mem/dsm.hh"
#include "support/alloc_counter.hh"

using namespace specrt;

namespace
{

struct Rig
{
    MachineConfig cfg;
    std::unique_ptr<DsmSystem> dsm;
    const Region *r;

    explicit Rig(int procs = 4)
    {
        cfg.numProcs = procs;
        dsm = std::make_unique<DsmSystem>(cfg);
        int id = dsm->memory().alloc("A", 1024 * 1024 + 4096, 4,
                                     Placement::Fixed, 0);
        r = &dsm->memory().region(id);
        for (uint64_t e = 0; e < 256; ++e)
            dsm->memory().write(r->elemAddr(e), 4, e + 1);
    }

    Tick
    loadLatency(NodeId n, Addr a)
    {
        Tick t0 = dsm->eventQueue().curTick();
        Tick t1 = t0;
        dsm->cacheCtrl(n).load(a, 4, 1, [&](uint64_t) {
            t1 = dsm->eventQueue().curTick();
        });
        dsm->eventQueue().run();
        return t1 - t0;
    }

    /**
     * Every node but the home (node 0) loads element @p elem in the
     * same cycle; node n's value lands in @p got[n] when it arrives.
     */
    void
    loadFromAll(uint64_t elem, std::array<uint64_t, 16> &got)
    {
        for (NodeId n = 1; n < cfg.numProcs; ++n) {
            dsm->cacheCtrl(n).load(r->elemAddr(elem), 4, 1,
                                   [&got, n](uint64_t v) { got[n] = v; });
        }
    }
};

} // namespace

TEST(DirCtrl, SameLineRequestsSerialize)
{
    Rig rig;
    // Two reads of the same (cold) line issued in the same cycle
    // from different nodes: the second waits for the first
    // transaction to complete at the home.
    Tick t1 = 0, t2 = 0;
    rig.dsm->cacheCtrl(1).load(rig.r->base, 4, 1, [&](uint64_t) {
        t1 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->cacheCtrl(2).load(rig.r->base, 4, 1, [&](uint64_t) {
        t2 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->eventQueue().run();
    EXPECT_EQ(std::min(t1, t2), 208u);
    EXPECT_GT(std::max(t1, t2), 208u); // strictly serialized
    EXPECT_EQ(rig.dsm->dirCtrl(0).numTxns(), 2u);
}

TEST(DirCtrl, DifferentLinesOnlyPayOccupancy)
{
    Rig rig;
    Tick t1 = 0, t2 = 0;
    rig.dsm->cacheCtrl(1).load(rig.r->base, 4, 1, [&](uint64_t) {
        t1 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->cacheCtrl(2).load(rig.r->base + 64, 4, 1, [&](uint64_t) {
        t2 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->eventQueue().run();
    // The controller pipeline separates them by at most the
    // occupancy, not by a full transaction.
    EXPECT_EQ(std::min(t1, t2), 208u);
    EXPECT_LE(std::max(t1, t2), 208u + rig.cfg.lat.dirOccupancy);
}

TEST(DirCtrl, SupersededWritebackIsDropped)
{
    Rig rig;
    // Node 1 dirties a line, then evicts it (writeback in flight via
    // a conflicting fill), while node 2 writes the same line. The
    // forward may catch node 1 with the line only in its writeback
    // buffer; the home must then drop node 1's writeback as
    // superseded and node 2 must end up the owner with fresh data.
    rig.dsm->cacheCtrl(1).store(rig.r->base, 4, 4141, 1);
    rig.dsm->eventQueue().run();

    // Evict: fill the same L2 set (8192 lines away) with a load.
    rig.dsm->cacheCtrl(1).load(rig.r->base + 8192 * 64, 4, 1,
                               [](uint64_t) {});
    // Same cycle: node 2 writes the line.
    rig.dsm->cacheCtrl(2).store(rig.r->base, 4, 4242, 1);
    rig.dsm->eventQueue().run();

    EXPECT_TRUE(rig.dsm->cacheCtrl(1).quiescent());
    EXPECT_TRUE(rig.dsm->cacheCtrl(2).quiescent());

    const DirEntry *e =
        rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Dirty);
    EXPECT_EQ(e->owner, 2);

    // Node 2's value survives.
    uint64_t v = 0;
    rig.dsm->cacheCtrl(3).load(rig.r->base, 4, 1,
                               [&](uint64_t val) { v = val; });
    rig.dsm->eventQueue().run();
    EXPECT_EQ(v, 4242u);
}

TEST(DirCtrl, BackToBackSharersThenUpgrade)
{
    Rig rig(8);
    for (NodeId n = 1; n < 8; ++n)
        rig.loadLatency(n, rig.r->base);
    const DirEntry *e =
        rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numSharers(), 7);

    rig.dsm->cacheCtrl(4).store(rig.r->base, 4, 99, 1);
    rig.dsm->eventQueue().run();
    e = rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    EXPECT_EQ(e->state, DirState::Dirty);
    EXPECT_EQ(e->owner, 4);
}

TEST(DirCtrl, ResetForgetsDirectoryState)
{
    Rig rig;
    rig.loadLatency(1, rig.r->base);
    EXPECT_NE(rig.dsm->dirCtrl(0).directory().find(rig.r->base),
              nullptr);
    rig.dsm->resetMachine(true);
    EXPECT_EQ(rig.dsm->dirCtrl(0).directory().find(rig.r->base),
              nullptr);
    EXPECT_EQ(rig.dsm->dirCtrl(0).directory().numEntries(), 0u);
}

TEST(DirCtrl, WritebackMakesLineUncached)
{
    Rig rig;
    rig.dsm->cacheCtrl(1).store(rig.r->base, 4, 7, 1);
    rig.dsm->eventQueue().run();
    rig.dsm->cacheCtrl(1).load(rig.r->base + 8192 * 64, 4, 1,
                               [](uint64_t) {});
    rig.dsm->eventQueue().run();
    const DirEntry *e =
        rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Uncached);
    EXPECT_EQ(rig.dsm->memory().read(rig.r->base, 4), 7u);
}

TEST(DirCtrl, QueuedSameLineRequestsAllocateNothingOnceWarm)
{
    Rig rig(8);
    DirCtrl &home = rig.dsm->dirCtrl(0);
    size_t maxQueued = 0;
    rig.dsm->eventQueue().setPostFireHook([&](Tick, EventKind) {
        maxQueued = std::max(maxQueued, home.numQueuedReqs());
    });
    // Seven reads of one cold line reach the home in the same cycle:
    // one becomes the line's transaction, six queue behind it.
    auto epoch = [&](uint64_t elem) {
        std::array<uint64_t, 16> got{};
        rig.loadFromAll(elem, got);
        rig.dsm->eventQueue().run();
        for (NodeId n = 1; n < 8; ++n)
            EXPECT_EQ(got[n], elem + 1) << "node " << n;
    };
    // Warm-up: the network's pool, the home's vectors, the event
    // slots, the caches' line storage and the directory page.
    epoch(0);
    EXPECT_EQ(maxQueued, 6u);
    EXPECT_EQ(home.numTxns(), 7u);

    // The same epoch on the next line, just as cold.
    maxQueued = 0;
    uint64_t before = allocsSoFar();
    epoch(16);
    EXPECT_EQ(allocsSoFar() - before, 0u)
        << "queued requests must reuse the network's copies";
    EXPECT_EQ(maxQueued, 6u);
    EXPECT_EQ(home.numTxns(), 14u);
    EXPECT_EQ(home.numActiveTxns(), 0u);
    EXPECT_EQ(home.numQueuedReqs(), 0u);
}

TEST(DirCtrl, ResetWithRequestsActiveAndQueuedFreesThem)
{
    Rig rig(8);
    DirCtrl &home = rig.dsm->dirCtrl(0);
    EventQueue &eq = rig.dsm->eventQueue();
    std::array<uint64_t, 16> got{};
    rig.loadFromAll(0, got);
    eq.run();

    // Interrupt the next line's epoch once the home holds one
    // request as its active transaction and others queued behind it.
    eq.setPostFireHook([&](Tick, EventKind) {
        if (home.numActiveTxns() > 0 && home.numQueuedReqs() > 0)
            eq.stop();
    });
    rig.loadFromAll(16, got);
    eq.run();
    eq.setPostFireHook(nullptr);
    ASSERT_EQ(home.numActiveTxns(), 1u);
    ASSERT_GT(home.numQueuedReqs(), 0u);

    // An aborting reset, as after a failed speculative loop.
    rig.dsm->resetMachine(false);
    EXPECT_EQ(home.numActiveTxns(), 0u);
    EXPECT_EQ(home.numQueuedReqs(), 0u);
    EXPECT_EQ(rig.dsm->network().numInFlight(), 0u);
    // The queue's reset also frees its event slots; one no-op event
    // rebuilds them without touching the home or the network.
    eq.scheduleIn(1, [] {});
    eq.run();

    // The first epoch again, on a cold machine: every copy the home
    // held when the reset came must be back in the network's pool.
    got = {};
    uint64_t before = allocsSoFar();
    rig.loadFromAll(0, got);
    eq.run();
    EXPECT_EQ(allocsSoFar() - before, 0u)
        << "the reset must return the requests the home retained";
    for (NodeId n = 1; n < 8; ++n)
        EXPECT_EQ(got[n], 1u) << "node " << n;
    EXPECT_EQ(home.numActiveTxns(), 0u);
    EXPECT_EQ(home.numQueuedReqs(), 0u);
}

TEST(DirCtrl, RepliesCarryTheirLinesWhileTheActiveSetGrows)
{
    Rig rig(16);
    DirCtrl &home = rig.dsm->dirCtrl(0);
    EventQueue &eq = rig.dsm->eventQueue();
    // Node 15 shares lines 1..14, so a write to any of them must wait
    // at the home for node 15's invalidation ack.
    for (uint64_t l = 1; l < 15; ++l)
        rig.loadLatency(15, rig.r->elemAddr(16 * l));

    size_t maxActive = 0;
    eq.setPostFireHook([&](Tick, EventKind) {
        maxActive = std::max(maxActive, home.numActiveTxns());
    });
    // Node n writes word 0 of line n, one node every 16 cycles. Each
    // write waits about two hops for its ack, so new transactions
    // join the active set while earlier ones wait in it: more than
    // eight at once means its vector grew (from 8 to 16) with
    // requests in flight.
    Tick t0 = eq.curTick();
    for (NodeId n = 1; n < 15; ++n) {
        eq.schedule(t0 + 16 * static_cast<Tick>(n), [&rig, n]() {
            rig.dsm->cacheCtrl(n).store(rig.r->elemAddr(16 * n), 4,
                                        1000 + n, 1);
        });
    }
    eq.run();
    eq.setPostFireHook(nullptr);
    EXPECT_GT(maxActive, 8u);
    EXPECT_EQ(home.numActiveTxns(), 0u);

    // Each write reply brought its line: word 0 holds the store, the
    // other fifteen words hold what memory held.
    for (NodeId n = 1; n < 15; ++n) {
        uint64_t first = 16 * static_cast<uint64_t>(n);
        const L2Set *line = rig.dsm->cacheCtrl(n).cacheArray().findLine(
            rig.r->elemAddr(first));
        ASSERT_NE(line, nullptr) << "node " << n;
        EXPECT_EQ(line->state, LineState::Dirty) << "node " << n;
        EXPECT_EQ(NodeCache::readWordIn(*line, rig.r->elemAddr(first), 4),
                  1000u + n);
        for (uint64_t w = 1; w < 16; ++w) {
            EXPECT_EQ(NodeCache::readWordIn(
                          *line, rig.r->elemAddr(first + w), 4),
                      first + w + 1)
                << "node " << n << " word " << w;
        }
    }
}
