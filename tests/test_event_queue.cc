/** @file Unit tests for the discrete-event engine. */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/small_function.hh"
#include "support/alloc_counter.hh"

using namespace specrt;

TEST(EventQueue, StartsAtTickZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.scheduleIn(4, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 5u);
}

TEST(EventQueue, SameTickReentrantScheduling)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&]() {
        order.push_back(1);
        // Zero-delay event fires later within the same tick.
        eq.scheduleIn(0, [&]() { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 7u);
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    int fired = 0;
    EventId a = eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.deschedule(a);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DescheduleUnknownIsNoop)
{
    EventQueue eq;
    eq.deschedule(invalidEventId);
    eq.deschedule(123456);
    eq.schedule(1, []() {});
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
}

TEST(EventQueue, StopHaltsImmediately)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() {
        ++fired;
        eq.stop();
    });
    eq.schedule(20, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.numPending(), 1u);
    // A subsequent run() resumes.
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetDropsEverything)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&]() { ++fired; });
    eq.run();
    eq.schedule(10, [&]() { ++fired; });
    eq.reset();
    EXPECT_TRUE(eq.empty());
    // Every pending event, but not the time: the tick is kept.
    EXPECT_EQ(eq.curTick(), 5u);
    eq.run();
    EXPECT_EQ(fired, 1);
}

// --- clock hook -------------------------------------------------------

TEST(EventQueue, ClockHookOnAnIdleQueueNeitherRunsNorMovesTime)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.setClockHook(10, [&](Tick t) { seen.push_back(t); });
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_TRUE(seen.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numFired(), 0u);
}

namespace
{

/** A controller that always takes the default pick. */
struct DefaultPick : ScheduleController
{
    size_t pick(const EventChoice *, size_t) override { return 0; }
};

} // namespace

TEST(EventQueue, ClockHookSeesGridTicksInOrderBeforeTheirEvents)
{
    // Both lanes (ticks 5-3500 on the wheel, 9000 in the heap), on
    // the plain and the controlled fire path. Each grid tick is seen
    // once, in order, before the first event at or after it (tick
    // 1000 once for its two-event bucket, tick 9000 before its own
    // event); the clock still reads the last fired event's tick, and
    // the hook is not a fired event.
    using Log = std::vector<std::pair<char, Tick>>;
    for (bool controlled : {false, true}) {
        EventQueue eq;
        DefaultPick pick;
        if (controlled)
            eq.setScheduleController(&pick);
        Log log;
        std::vector<Tick> clock_at;
        eq.setClockHook(1000, [&](Tick t) {
            log.emplace_back('h', t);
            clock_at.push_back(eq.curTick());
        });
        for (Tick t : {Tick(5), Tick(1000), Tick(1000), Tick(3500),
                       Tick(9000)})
            eq.schedule(t, [&log, t]() { log.emplace_back('e', t); });
        EXPECT_EQ(eq.run(), 9000u);
        EXPECT_EQ(log, (Log{{'e', 5}, {'h', 1000}, {'e', 1000},
                            {'e', 1000}, {'h', 2000}, {'h', 3000},
                            {'e', 3500}, {'h', 4000}, {'h', 5000},
                            {'h', 6000}, {'h', 7000}, {'h', 8000},
                            {'h', 9000}, {'e', 9000}}))
            << (controlled ? "controlled" : "plain");
        EXPECT_EQ(clock_at, (std::vector<Tick>{5, 1000, 1000, 3500, 3500,
                                               3500, 3500, 3500, 3500}));
        EXPECT_EQ(eq.numFired(), 5u);
    }
}

TEST(EventQueue, ClockHookStopsWithTheWorkAndSurvivesReset)
{
    EventQueue eq;
    std::vector<Tick> seen;
    eq.setClockHook(10, [&](Tick t) { seen.push_back(t); });
    eq.schedule(25, []() {});
    // Grid tick 30 lies past the last event: the drain ends at 25
    // without seeing it.
    EXPECT_EQ(eq.run(), 25u);
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20}));
    // The next leg picks the grid up where time left it.
    eq.schedule(31, []() {});
    EXPECT_EQ(eq.run(), 31u);
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20, 30}));
    // reset() drops the pending event and keeps the tick, the hook
    // and its grid.
    eq.schedule(45, []() {});
    eq.reset();
    EXPECT_TRUE(eq.empty());
    eq.scheduleIn(12, []() {});
    eq.run();
    EXPECT_EQ(seen, (std::vector<Tick>{10, 20, 30, 40}));
    EXPECT_EQ(eq.numFired(), 3u);
    // An empty function removes the hook.
    eq.setClockHook(0, {});
    eq.scheduleIn(50, []() {});
    eq.run();
    EXPECT_EQ(seen.size(), 4u);
    EXPECT_EQ(eq.numFired(), 4u);
}

TEST(EventQueue, CountsFiredEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i + 1, []() {});
    eq.run();
    EXPECT_EQ(eq.numFired(), 5u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        Tick when = static_cast<Tick>((i * 2654435761u) % 5000 + 1);
        eq.schedule(when, [&, when]() {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.numFired(), 10000u);
}

TEST(EventQueue, CancelThenRescheduleReusesSlotSafely)
{
    EventQueue eq;
    int a = 0, b = 0;
    EventId ida = eq.schedule(10, [&]() { ++a; });
    eq.deschedule(ida);
    // The freed slot is reused; the stale id must not name it.
    EventId idb = eq.schedule(10, [&]() { ++b; });
    eq.deschedule(ida); // stale: generation mismatch, no-op
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    // Descheduling after the event fired is also a no-op.
    eq.deschedule(idb);
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, StaleIdAfterFireCannotCancelReusedSlot)
{
    EventQueue eq;
    int fired = 0;
    EventId first = eq.schedule(1, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    // The slot is recycled for a new event; the old id must not
    // cancel it.
    eq.schedule(2, [&]() { ++fired; });
    eq.deschedule(first);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SameTickFifoOrderingSurvivesInterleavedCancel)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    // curTick == 0, so these all append to the bucket of the current
    // tick and must fire first in, first out.
    for (int i = 0; i < 12; ++i)
        ids.push_back(eq.schedule(0, [&order, i]() {
            order.push_back(i);
        }));
    // Cancel every third, interleaved with more scheduling.
    for (int i = 0; i < 12; i += 3)
        eq.deschedule(ids[i]);
    eq.schedule(0, [&order]() { order.push_back(100); });
    eq.run();
    std::vector<int> expect;
    for (int i = 0; i < 12; ++i)
        if (i % 3 != 0)
            expect.push_back(i);
    expect.push_back(100);
    EXPECT_EQ(order, expect);
}

namespace
{

/**
 * Reference engine for the randomized script: every pending event in
 * one ordered map keyed by (when, schedule sequence). Slow and
 * obviously right.
 */
class ReferenceQueue
{
  public:
    Tick curTick() const { return now; }

    uint64_t
    schedule(Tick when, std::function<void()> cb)
    {
        uint64_t id = nextSeq++;
        keyOf[id] = {when, id};
        pending[{when, id}] = std::move(cb);
        return id;
    }

    void
    deschedule(uint64_t id)
    {
        auto it = keyOf.find(id);
        if (it == keyOf.end())
            return;
        pending.erase(it->second);
        keyOf.erase(it);
    }

    size_t numPending() const { return pending.size(); }

    Tick
    run()
    {
        while (!pending.empty()) {
            auto it = pending.begin();
            now = it->first.first;
            std::function<void()> cb = std::move(it->second);
            keyOf.erase(it->first.second);
            pending.erase(it);
            cb();
        }
        return now;
    }

  private:
    std::map<std::pair<Tick, uint64_t>, std::function<void()>> pending;
    std::map<uint64_t, std::pair<Tick, uint64_t>> keyOf;
    uint64_t nextSeq = 0;
    Tick now = 0;
};

/** Controller that always picks the default (first) candidate. */
struct Pick0Controller : ScheduleController
{
    size_t decisions = 0;

    size_t
    pick(const EventChoice *, size_t) override
    {
        ++decisions;
        return 0;
    }
};

/**
 * Run one randomized schedule/cancel script on @p q and return the
 * tokens in fire order. Delays span both lanes: zero (the current
 * tick), near (under the engine's 4096-tick wheel) and far (several
 * wheel spans, the heap). Callbacks schedule and cancel too, so
 * cancellation reaches both lanes from inside and outside fire().
 * Every choice a callback makes is drawn from its own token, so two
 * engines that fire the same order make the same choices.
 */
template <typename Queue>
std::vector<int>
runScript(Queue &q)
{
    constexpr Tick span = 4096;
    constexpr int topLevel = 10000;
    constexpr int maxTokens = 16000;
    std::vector<int> fired;
    std::vector<uint64_t> ids; // token -> id
    std::mt19937 rng(0xC0FFEE);

    auto delayFrom = [&](std::mt19937 &r) -> Tick {
        switch (r() % 4) {
          case 0: return 0;
          case 1: return r() % 16;
          case 2: return r() % span;
          default: return span + r() % (4 * span);
        }
    };

    std::function<void(int)> act;
    auto scheduleToken = [&](Tick when) {
        int token = static_cast<int>(ids.size());
        ids.push_back(q.schedule(when, [&act, token]() { act(token); }));
    };
    act = [&](int token) {
        fired.push_back(token);
        std::mt19937 r(static_cast<uint32_t>(token));
        if (ids.size() < maxTokens && r() % 2 == 0)
            scheduleToken(q.curTick() + delayFrom(r));
        // Cancel any token, pending, fired or cancelled already (the
        // latter two are no-ops), and now and then this one (also a
        // no-op: it is firing).
        if (r() % 3 == 0)
            q.deschedule(ids[r() % ids.size()]);
        if (r() % 8 == 0)
            q.deschedule(ids[token]);
    };

    for (int i = 0; i < topLevel; ++i) {
        if (!ids.empty() && rng() % 4 == 0)
            q.deschedule(ids[rng() % ids.size()]);
        // Tick 0 is the current tick here: zero-delay events from
        // outside any callback.
        Tick when = rng() % 2 ? rng() % 512 : delayFrom(rng);
        scheduleToken(when);
    }
    q.run();
    EXPECT_EQ(q.numPending(), 0u);
    return fired;
}

} // namespace

TEST(EventQueue, RandomizedScriptMatchesReferenceModel)
{
    // Fire order must be exactly (when, schedule sequence) over the
    // surviving events, whichever lane holds them and whoever
    // scheduled or cancelled them.
    ReferenceQueue ref;
    std::vector<int> expect = runScript(ref);
    ASSERT_GT(expect.size(), 10000u);

    EventQueue eq;
    std::vector<int> fired = runScript(eq);
    ASSERT_EQ(fired.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(fired[i], expect[i]) << "position " << i;
    EXPECT_EQ(eq.curTick(), ref.curTick());

    // The controlled fire path under an always-default controller
    // fires the same order.
    EventQueue cq;
    Pick0Controller p0;
    cq.setScheduleController(&p0);
    std::vector<int> controlled = runScript(cq);
    EXPECT_GT(p0.decisions, 0u);
    ASSERT_EQ(controlled.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(controlled[i], expect[i]) << "position " << i;
}

TEST(EventQueue, NumFiredTotalSurvivesReset)
{
    EventQueue eq;
    for (int i = 0; i < 3; ++i)
        eq.schedule(i + 1, []() {});
    eq.run();
    eq.reset();
    eq.scheduleIn(1, []() {});
    eq.run();
    EXPECT_EQ(eq.numFired(), 4u);
}

TEST(EventQueue, SteadyStateMakesNoHeapAllocations)
{
    EventQueue eq;
    uint64_t counter = 0;
    std::vector<EventId> ids;
    ids.reserve(64);
    auto round = [&]() {
        ids.clear();
        for (int i = 0; i < 64; ++i)
            ids.push_back(eq.scheduleIn(
                static_cast<Cycles>(i % 7 + 1),
                [&counter]() { ++counter; }));
        for (int i = 0; i < 64; i += 2)
            eq.deschedule(ids[i]);
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(0, [&counter]() { ++counter; });
        eq.run();
    };
    // Far-future round: every event lies beyond the 4096-tick wheel,
    // and the later half is cancelled, so the drain ends before the
    // cancelled ones' ticks. Cancelled entries must not pile up in
    // the far-future lane from round to round.
    auto farRound = [&]() {
        ids.clear();
        for (int i = 0; i < 64; ++i)
            ids.push_back(eq.scheduleIn(static_cast<Cycles>(4096 + 37 * i),
                                        [&counter]() { ++counter; }));
        for (int i = 32; i < 64; ++i)
            eq.deschedule(ids[i]);
        eq.run();
    };
    // Warm up: vectors grow to the working-set size.
    for (int i = 0; i < 4; ++i) {
        round();
        farRound();
    }

    uint64_t before = allocsSoFar();
    for (int i = 0; i < 16; ++i) {
        round();
        farRound();
    }
    uint64_t delta = allocsSoFar() - before;
    // The engine itself must be allocation-free in steady state; the
    // test's own ids vector is reserved, so any delta is the engine's.
    EXPECT_EQ(delta, 0u);
    EXPECT_GT(counter, 0u);
}

TEST(SmallFunction, InlineAndHeapStorage)
{
    uint64_t x = 0;
    auto small = [&x]() { ++x; };
    static_assert(SmallFunction::storedInline<decltype(small)>(),
                  "small capture must use the inline buffer");

    struct Big
    {
        char pad[96];
    };
    Big big{};
    auto large = [&x, big]() { x += static_cast<uint64_t>(big.pad[0]) + 1; };
    static_assert(!SmallFunction::storedInline<decltype(large)>(),
                  "oversized capture must spill to the heap");

    SmallFunction f(std::move(small));
    SmallFunction g(std::move(large));
    f();
    g();
    EXPECT_EQ(x, 2u);

    // Move transfers the callable and empties the source.
    SmallFunction h(std::move(f));
    h();
    EXPECT_EQ(x, 3u);
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_TRUE(static_cast<bool>(h));
}

namespace
{

/** Controller scripting fixed picks; records what it was offered. */
struct ScriptedController : ScheduleController
{
    std::vector<size_t> script;
    size_t next = 0;
    std::vector<std::vector<EventChoice>> offered;

    size_t
    pick(const EventChoice *choices, size_t n) override
    {
        offered.emplace_back(choices, choices + n);
        return next < script.size() ? script[next++] : 0;
    }
};

} // namespace

TEST(ScheduleControllerHook, NotConsultedForForcedMoves)
{
    // Distinct ticks: always exactly one ready event, never a
    // decision point.
    EventQueue q;
    ScriptedController c;
    q.setScheduleController(&c);
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(c.offered.empty());
}

TEST(ScheduleControllerHook, PickReordersSameTickEvents)
{
    EventQueue q;
    ScriptedController c;
    c.script = {2};
    q.setScheduleController(&c);
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(0); }, EventKind::Cache, 4);
    q.schedule(10, [&] { order.push_back(1); }, EventKind::Network, 5);
    q.schedule(10, [&] { order.push_back(2); }, EventKind::Sched);
    q.run();
    // Pick 2 first; the rest follow in default order.
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
    ASSERT_EQ(c.offered.size(), 2u);
    // Candidates carry the scheduling-site tags, default order.
    ASSERT_EQ(c.offered[0].size(), 3u);
    EXPECT_EQ(c.offered[0][0].kind, EventKind::Cache);
    EXPECT_EQ(c.offered[0][0].actor, 4u);
    EXPECT_EQ(c.offered[0][1].kind, EventKind::Network);
    EXPECT_EQ(c.offered[0][1].actor, 5u);
    EXPECT_EQ(c.offered[0][2].kind, EventKind::Sched);
    EXPECT_EQ(c.offered[0][2].actor, unknownActor);
}

TEST(ScheduleControllerHook, PickReordersReadyEventsOfBothLanes)
{
    // Tick 9000 is beyond the wheel when seen from tick 0 (events 0
    // and 1 go to the far-future heap) and near from tick 6000
    // (event 2 goes to the wheel); all three are ready together.
    EventQueue q;
    ScriptedController c;
    c.script = {2, 1};
    q.setScheduleController(&c);
    std::vector<int> order;
    q.schedule(9000, [&] { order.push_back(0); });
    q.schedule(9000, [&] { order.push_back(1); });
    q.schedule(6000, [&] {
        q.schedule(9000, [&] { order.push_back(2); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
    ASSERT_EQ(c.offered.size(), 2u);
    EXPECT_EQ(c.offered[0].size(), 3u);
    EXPECT_EQ(c.offered[1].size(), 2u);
}

TEST(ScheduleControllerHook, OutOfRangePickIsClamped)
{
    EventQueue q;
    ScriptedController c;
    c.script = {99};
    q.setScheduleController(&c);
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(0); });
    q.schedule(10, [&] { order.push_back(1); });
    q.run();
    // Clamped to the last candidate.
    EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(ScheduleControllerHook, ControllerSurvivesReset)
{
    EventQueue q;
    ScriptedController c;
    q.setScheduleController(&c);
    q.schedule(10, [] {});
    q.reset();
    EXPECT_EQ(q.scheduleController(), &c);
    q.schedule(5, [] {});
    q.schedule(5, [] {});
    q.run();
    EXPECT_EQ(c.offered.size(), 1u);
}

TEST(PostFireHook, FiresPerEventWithTickAndKind)
{
    EventQueue q;
    std::vector<std::pair<Tick, EventKind>> fired;
    q.setPostFireHook(
        [&](Tick t, EventKind k) { fired.emplace_back(t, k); });
    q.schedule(10, [] {}, EventKind::Network, 1);
    q.schedule(20, [] {}, EventKind::Cache, 0);
    q.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], (std::pair<Tick, EventKind>{10,
                                                    EventKind::Network}));
    EXPECT_EQ(fired[1],
              (std::pair<Tick, EventKind>{20, EventKind::Cache}));
}

TEST(PostFireHook, RunsAfterTheCallbackAndOnControlledPath)
{
    EventQueue q;
    ScriptedController c;
    q.setScheduleController(&c);
    std::vector<int> seq;
    q.setPostFireHook([&](Tick, EventKind) { seq.push_back(-1); });
    q.schedule(10, [&] { seq.push_back(0); });
    q.schedule(10, [&] { seq.push_back(1); });
    q.run();
    // callback, hook, callback, hook -- on the controlled path too.
    EXPECT_EQ(seq, (std::vector<int>{0, -1, 1, -1}));
}
