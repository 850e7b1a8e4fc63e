/**
 * @file
 * Event-engine microbenchmark: schedule/fire/cancel throughput of
 * the index-tracked-heap engine (sim/event_queue.hh) against a
 * replica of the seed engine (std::priority_queue of std::function
 * plus lazy-deletion cancel sets), on the cycle every protocol hop
 * takes. The headline number -- new/legacy schedule+fire throughput
 * -- lands in BENCH_results.json as metric "sched_fire_speedup";
 * the CI perf gate holds it at its bench/baseline.json floor, 3.754
 * (the bench itself exits 1 below 1.3).
 */

#include <chrono>
#include <cstdio>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "harness.hh"
#include "sim/event_queue.hh"

using namespace specrt;
using namespace specrt::bench;

namespace
{

/** The seed engine, verbatim (lazy cancellation, allocating). */
class LegacyEventQueue
{
  public:
    using Id = uint64_t;

    Tick curTick() const { return _curTick; }

    Id
    schedule(Tick when, std::function<void()> callback)
    {
        Id id = nextId++;
        pending.push(Entry{when, nextSeq++, id, std::move(callback)});
        live.insert(id);
        return id;
    }

    Id
    scheduleIn(Cycles delay, std::function<void()> callback)
    {
        return schedule(_curTick + delay, std::move(callback));
    }

    void
    deschedule(Id id)
    {
        if (!live.erase(id))
            return;
        cancelled.insert(id);
    }

    Tick
    run()
    {
        while (!pending.empty()) {
            Entry entry =
                std::move(const_cast<Entry &>(pending.top()));
            pending.pop();
            auto it = cancelled.find(entry.id);
            if (it != cancelled.end()) {
                cancelled.erase(it);
                continue;
            }
            live.erase(entry.id);
            _curTick = entry.when;
            entry.callback();
        }
        return _curTick;
    }

  private:
    struct Entry
    {
        Tick when;
        uint64_t seq;
        Id id;
        std::function<void()> callback;
    };

    struct EntryCompare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, EntryCompare>
        pending;
    std::unordered_set<Id> live;
    std::unordered_set<Id> cancelled;
    Tick _curTick = 0;
    uint64_t nextSeq = 0;
    Id nextId = 1;
};

/**
 * Always-default controller: what the explorer's replay costs once
 * the stack is exhausted. The engine only consults it at same-tick
 * collision points, so the delta vs.\ the uncontrolled run isolates
 * the controlled fire path; the uncontrolled run itself (the gated
 * sched_fire_speedup metric) demonstrates that merely compiling the
 * hook in costs nothing when no controller is installed.
 */
struct Pick0Controller : ScheduleController
{
    size_t
    pick(const EventChoice *, size_t) override
    {
        return 0;
    }
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * The common protocol cycle: every round schedules a spread of
 * future events and drains them. Returns events fired per second.
 */
template <typename Queue>
double
schedFireWorkload(Queue &q, int rounds, int perRound, uint64_t &sink)
{
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < perRound; ++i)
            q.scheduleIn(static_cast<Cycles>(i % 97 + 1),
                         [&sink]() { ++sink; });
        q.run();
    }
    return static_cast<double>(rounds) * perRound / secondsSince(t0);
}

/** Watchdog pattern: schedule, cancel half before they fire. */
template <typename Queue>
double
cancelHeavyWorkload(Queue &q, int rounds, int perRound,
                    uint64_t &sink)
{
    std::vector<decltype(q.schedule(0, []() {}))> ids(perRound);
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (int i = 0; i < perRound; ++i)
            ids[i] = q.scheduleIn(static_cast<Cycles>(i % 211 + 1),
                                  [&sink]() { ++sink; });
        for (int i = 0; i < perRound; i += 2)
            q.deschedule(ids[i]);
        q.run();
    }
    return static_cast<double>(rounds) * perRound / secondsSince(t0);
}

/** Zero-delay hand-off chains (the same-tick FIFO fast lane). */
template <typename Queue>
double
sameTickWorkload(Queue &q, int rounds, int chains, int depth,
                 uint64_t &sink)
{
    std::function<void(int)> hop = [&](int d) {
        ++sink;
        if (d > 0)
            q.scheduleIn(0, [&hop, d]() { hop(d - 1); });
    };
    auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < rounds; ++r) {
        for (int c = 0; c < chains; ++c) {
            q.scheduleIn(static_cast<Cycles>(c % 13 + 1),
                         [&hop, depth]() { hop(depth); });
        }
        q.run();
    }
    return static_cast<double>(rounds) * chains * (depth + 1) /
           secondsSince(t0);
}

} // namespace

SPECRT_BENCH_MAIN(event_queue)
{
    printHeader("Event engine: schedule/fire/cancel throughput, "
                "new vs seed engine");

    const int rounds = quickPick(1500, 200);
    const int perRound = 1000;
    uint64_t sink = 0;

    EventQueue nq;
    LegacyEventQueue lq;

    // Warm both engines so vector growth happens off the clock.
    schedFireWorkload(nq, 10, perRound, sink);
    schedFireWorkload(lq, 10, perRound, sink);

    double nSf = schedFireWorkload(nq, rounds, perRound, sink);
    double lSf = schedFireWorkload(lq, rounds, perRound, sink);
    double nCa = cancelHeavyWorkload(nq, rounds, perRound, sink);
    double lCa = cancelHeavyWorkload(lq, rounds, perRound, sink);
    double nSt = sameTickWorkload(nq, rounds / 4 + 1, 100, 9, sink);
    double lSt = sameTickWorkload(lq, rounds / 4 + 1, 100, 9, sink);

    // Same workload with a pick-0 ScheduleController installed: the
    // price of the explorer's controlled fire path when it IS active
    // (the absent-controller numbers above gate the default path).
    Pick0Controller p0;
    EventQueue cq;
    schedFireWorkload(cq, 10, perRound, sink);
    cq.setScheduleController(&p0);
    double cSf = schedFireWorkload(cq, rounds, perRound, sink);
    cq.setScheduleController(nullptr);

    std::vector<int> w = {16, 14, 14, 10};
    printRow({"workload", "new Mev/s", "seed Mev/s", "speedup"}, w);
    auto row = [&](const char *name, double n, double l) {
        printRow({name, fmt(n / 1e6), fmt(l / 1e6), fmt(n / l, 2)},
                 w);
    };
    row("schedule+fire", nSf, lSf);
    row("cancel-heavy", nCa, lCa);
    row("same-tick chain", nSt, lSt);
    row("ctl'd (pick-0)", cSf, lSf);

    telemetry().metric("sched_fire_new_meps", nSf / 1e6);
    telemetry().metric("sched_fire_controlled_meps", cSf / 1e6);
    telemetry().metric("controlled_fire_relative", cSf / nSf);
    telemetry().metric("sched_fire_legacy_meps", lSf / 1e6);
    telemetry().metric("sched_fire_speedup", nSf / lSf);
    telemetry().metric("cancel_heavy_speedup", nCa / lCa);
    telemetry().metric("same_tick_speedup", nSt / lSt);
    // Give the regression gate a sim-rate to track: this bench's
    // "simulated ticks" are the engine's own advanced ticks.
    telemetry().simTicks += nq.curTick();
    telemetry().eventsFired += nq.numFired();

    std::printf("\nsink=%llu (keeps the callbacks alive)\n",
                (unsigned long long)sink);
    std::printf("Target: schedule+fire speedup >= 1.3x over the "
                "seed engine.\n");
    return nSf / lSf >= 1.3 ? 0 : 1;
}
