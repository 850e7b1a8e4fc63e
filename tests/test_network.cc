/**
 * @file
 * Unit tests for the constant-latency network and its message pool.
 * Once the pool is warm, steady-state traffic, a reset with
 * deliveries in flight and retransmissions allocate nothing; a
 * machine destroyed with deliveries pending touches nothing freed.
 */

#include <gtest/gtest.h>

#include "mem/dsm.hh"
#include "mem/network.hh"
#include "support/alloc_counter.hh"

using namespace specrt;

namespace
{

struct Fixture
{
    MachineConfig cfg;
    EventQueue eq;
    std::unique_ptr<Network> net;
    std::vector<Msg> cacheRx;
    std::vector<Msg> dirRx;
    std::vector<Tick> rxTicks;

    Fixture()
    {
        cfg.numProcs = 4;
        net = std::make_unique<Network>(eq, cfg);
        for (NodeId n = 0; n < 4; ++n) {
            net->setCacheHandler(n, [this](const Msg &m) {
                cacheRx.push_back(m);
                rxTicks.push_back(eq.curTick());
            });
            net->setDirHandler(n, [this](const Msg &m) {
                dirRx.push_back(m);
                rxTicks.push_back(eq.curTick());
            });
        }
    }

    Msg
    mk(MsgType t, NodeId src, NodeId dst)
    {
        Msg m;
        m.type = t;
        m.src = src;
        m.dst = dst;
        m.lineAddr = 0x1000;
        return m;
    }
};

} // namespace

TEST(Network, InterNodeLatencyIsOneHop)
{
    Fixture f;
    f.net->send(f.mk(MsgType::ReadReply, 0, 1));
    f.eq.run();
    ASSERT_EQ(f.rxTicks.size(), 1u);
    EXPECT_EQ(f.rxTicks[0], f.cfg.lat.netHop);
}

TEST(Network, IntraNodeIsImmediate)
{
    Fixture f;
    f.net->send(f.mk(MsgType::ReadReply, 2, 2));
    f.eq.run();
    ASSERT_EQ(f.rxTicks.size(), 1u);
    EXPECT_EQ(f.rxTicks[0], 0u);
}

TEST(Network, ExtraDelayAdds)
{
    Fixture f;
    f.net->send(f.mk(MsgType::ReadReply, 0, 1), 11);
    f.eq.run();
    EXPECT_EQ(f.rxTicks[0], f.cfg.lat.netHop + 11);
}

TEST(Network, RoutesRequestsToDirectory)
{
    Fixture f;
    f.net->send(f.mk(MsgType::ReadReq, 0, 1));
    f.net->send(f.mk(MsgType::FirstUpdate, 0, 1));
    f.net->send(f.mk(MsgType::Inval, 1, 0));
    f.eq.run();
    EXPECT_EQ(f.dirRx.size(), 2u);
    EXPECT_EQ(f.cacheRx.size(), 1u);
    EXPECT_EQ(f.cacheRx[0].type, MsgType::Inval);
}

TEST(Network, InOrderPerPair)
{
    Fixture f;
    for (int i = 0; i < 20; ++i) {
        Msg m = f.mk(MsgType::ReadReply, 0, 1);
        m.iter = i;
        f.net->send(std::move(m));
    }
    f.eq.run();
    ASSERT_EQ(f.cacheRx.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(f.cacheRx[i].iter, i);
}

TEST(Network, CountsHopsAndMsgs)
{
    Fixture f;
    f.net->send(f.mk(MsgType::ReadReply, 0, 1));
    f.net->send(f.mk(MsgType::ReadReply, 1, 1));
    f.net->send(f.mk(MsgType::ReadReply, 2, 3));
    f.eq.run();
    EXPECT_EQ(f.net->numMsgs(), 3u);
    EXPECT_EQ(f.net->numHops(), 2u);
}

TEST(Network, RetriesAreCountedPerMessageClass)
{
    Fixture f;
    FaultConfig fc;
    fc.seed = 3;
    fc.dropProb = 1.0; // every eligible transmission is lost
    fc.watchdogTimeout = 100;
    FaultPlan plan(fc);
    f.net->setFaultPlan(&plan);
    size_t lost = 0;
    f.net->setLostHook([&](const Msg &, const char *) { ++lost; });

    plan.arm();
    f.net->send(f.mk(MsgType::FirstUpdate, 0, 1));
    f.net->send(f.mk(MsgType::CopyOutSig, 2, 1));
    f.eq.run();
    plan.disarm();

    // Each dropped signal is retransmitted watchdogMaxRetries times
    // (every attempt drops too), then declared lost -- and every
    // retry lands in its class's bucket.
    auto retries = static_cast<double>(fc.watchdogMaxRetries);
    EXPECT_EQ(
        f.net->retriesByType[static_cast<size_t>(MsgType::FirstUpdate)],
        retries);
    EXPECT_EQ(
        f.net->retriesByType[static_cast<size_t>(MsgType::CopyOutSig)],
        retries);
    EXPECT_EQ(
        f.net->retriesByType[static_cast<size_t>(MsgType::ReadReply)],
        0.0);
    EXPECT_EQ(f.net->retriesByType.total(),
              f.net->msgsRetried.value());
    EXPECT_EQ(lost, 2u);
    EXPECT_EQ(f.net->msgsLost.value(), 2.0);
    EXPECT_EQ(f.net->numPendingRetransmits(), 0u);
}

TEST(Network, JitterNeverReordersAChannel)
{
    Fixture f;
    FaultConfig fc;
    fc.seed = 11;
    fc.jitterProb = 0.8;
    fc.jitterMaxCycles = 50;
    FaultPlan plan(fc);
    f.net->setFaultPlan(&plan);

    plan.arm();
    for (int i = 0; i < 30; ++i) {
        Msg m = f.mk(MsgType::ReadReply, 0, 1);
        m.iter = i;
        f.net->send(std::move(m));
    }
    f.eq.run();
    plan.disarm();

    ASSERT_EQ(f.cacheRx.size(), 30u);
    for (int i = 0; i < 30; ++i)
        EXPECT_EQ(f.cacheRx[i].iter, i);
}

// --- the message pool ---------------------------------------------------

namespace
{

/** A 4-node network wired to counting handlers (no allocation). */
struct CountingFixture
{
    static constexpr int maxIter = 200;

    MachineConfig cfg;
    EventQueue eq;
    std::unique_ptr<Network> net;
    uint64_t delivered = 0;
    /** Deliveries per message iter. */
    std::vector<int> arrivals = std::vector<int>(maxIter);
    /** Send only FirstUpdate signals, which the NI retransmits. */
    bool signals = false;

    CountingFixture()
    {
        cfg.numProcs = 4;
        net = std::make_unique<Network>(eq, cfg);
        auto count = [this](const Msg &m) {
            ++delivered;
            ++arrivals.at(m.iter);
        };
        for (NodeId n = 0; n < 4; ++n) {
            net->setCacheHandler(n, count);
            net->setDirHandler(n, count);
        }
    }

    /** Send @p msgs messages (iters 0..msgs-1) without running. */
    void
    send(int msgs)
    {
        for (int i = 0; i < msgs; ++i) {
            Msg m;
            m.type = signals  ? MsgType::FirstUpdate
                     : i % 2 ? MsgType::ReadReply
                             : MsgType::ReadReq;
            m.src = static_cast<NodeId>(i % 4);
            m.dst = static_cast<NodeId>((i + 1) % 4);
            m.lineAddr = 0x1000 + 64 * (i % 8);
            m.iter = i;
            m.data.resize(64);
            m.data[0] = static_cast<uint8_t>(i);
            net->send(std::move(m));
        }
    }

    void
    epoch(int msgs)
    {
        send(msgs);
        eq.run();
    }

    /** Heap allocations made by one epoch of @p msgs messages. */
    uint64_t
    allocsOfEpoch(int msgs)
    {
        uint64_t before = allocsSoFar();
        epoch(msgs);
        return allocsSoFar() - before;
    }
};

} // namespace

TEST(NetworkPool, SteadyStateIsZeroAlloc)
{
    CountingFixture f;
    // Warm-up epoch: pool growth, event-queue vector growth and the
    // free list's capacity all happen here.
    f.epoch(200);
    ASSERT_EQ(f.delivered, 200u);

    // Steady state: every delivery's message copy comes off the
    // network's free list and every event slot is recycled, so the
    // send -> transmit -> deliver path touches the heap zero times.
    EXPECT_EQ(f.allocsOfEpoch(200), 0u)
        << "steady-state network traffic must not allocate";
    EXPECT_EQ(f.delivered, 400u);
}

TEST(NetworkPool, ResetReturnsEveryCopyInFlight)
{
    CountingFixture f;
    f.epoch(200);
    // A machine reset with 200 deliveries in flight: the queue's
    // reset drops their events, so only the network's reset can
    // hand their copies back.
    f.send(200);
    f.eq.reset();
    f.net->reset();
    EXPECT_EQ(f.net->numInFlight(), 0u);
    // The queue's reset also frees its event slots; one no-op event
    // rebuilds them without touching the network.
    f.eq.scheduleIn(1, [] {});
    f.eq.run();

    EXPECT_EQ(f.allocsOfEpoch(200), 0u)
        << "the reset must return every copy the dropped events held";
    EXPECT_EQ(f.delivered, 400u);
}

TEST(NetworkPool, RetransmissionsReuseCopies)
{
    CountingFixture f;
    f.signals = true;
    FaultConfig fc;
    fc.seed = 5;
    fc.dropProb = 0.5;
    fc.watchdogTimeout = 100;
    fc.watchdogMaxRetries = 20;
    FaultPlan plan(fc);
    f.net->setFaultPlan(&plan);

    plan.arm();
    f.epoch(200);
    double warmRetries = f.net->msgsRetried.value();
    EXPECT_GT(warmRetries, 0.0);
    // The second epoch drops the same signals as the first, so it
    // needs no more room in the event queue: only the network's
    // copies are on trial.
    plan.reseed(fc.seed);
    uint64_t heapAllocs = f.allocsOfEpoch(200);
    plan.disarm();

    EXPECT_EQ(heapAllocs, 0u)
        << "a retransmission must reuse the copy it was dropped with";
    EXPECT_GT(f.net->msgsRetried.value(), warmRetries);
    EXPECT_EQ(f.net->msgsLost.value(), 0.0);
    EXPECT_EQ(f.net->numPendingRetransmits(), 0u);
    // Every signal arrived once per epoch: dropped, retransmitted,
    // never lost or doubled.
    for (int i = 0; i < CountingFixture::maxIter; ++i)
        EXPECT_EQ(f.arrivals[i], 2) << "iter " << i;
}

TEST(NetworkPool, MachineDestroyedWithDeliveriesPending)
{
    // The machine's event queue outlives its network, so the events
    // still pending when the machine dies are destroyed after the
    // pool. They hold plain pointers into it and must touch nothing
    // (the sanitizer builds turn a use after free into a failure).
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.fault.dropProb = 1.0;
    cfg.fault.watchdogTimeout = 100;
    auto dsm = std::make_unique<DsmSystem>(cfg);
    Network &net = dsm->network();
    for (int i = 0; i < 8; ++i) {
        Msg m;
        m.type = MsgType::ReadReply;
        m.src = static_cast<NodeId>(i % 4);
        m.dst = static_cast<NodeId>((i + 1) % 4);
        m.lineAddr = 0x1000;
        net.send(m);
    }
    // ...and a dropped signal waiting for its retransmission.
    dsm->faultPlan().arm();
    Msg sig;
    sig.type = MsgType::FirstUpdate;
    sig.src = 0;
    sig.dst = 1;
    sig.lineAddr = 0x1000;
    net.send(sig);
    EXPECT_EQ(net.numInFlight(), 8u);
    EXPECT_EQ(net.numPendingRetransmits(), 1u);
    dsm.reset();
}
