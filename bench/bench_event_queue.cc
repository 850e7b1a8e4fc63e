/**
 * @file
 * Event-engine microbenchmark: schedule/fire/cancel throughput of
 * the two-lane engine (sim/event_queue.hh: a timing wheel plus a
 * far-future heap) against a replica of the seed engine
 * (std::priority_queue of std::function plus lazy-deletion cancel
 * sets), on the cycle every protocol hop takes. The headline number
 * -- new/legacy schedule+fire throughput -- lands in
 * BENCH_results.json as metric "sched_fire_speedup"; the CI perf
 * gate holds it at its bench/baseline.json floor, 3.754 (the bench
 * itself exits 1 below 1.3).
 *
 * The engines take turns on each workload, a short block of rounds
 * at a time, and each ratio compares the two engines' fastest
 * blocks: a slow host period then slows both sides' blocks alike or
 * costs a side only the blocks it covers, not the whole ratio.
 */

#include <algorithm>
#include <array>
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

/**
 * Zero-delay hand-off chains: each hop appends to the wheel bucket
 * being drained, and the engine fires the whole tick in one loop.
 */
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

/** Blocks each engine's rounds of one workload are split into. */
constexpr int blocksPerWorkload = 20;

/**
 * Run @p work(queue, rounds) on each of @p qs in turn, one block of
 * rounds at a time, until each has run @p rounds; return each
 * queue's fastest block rate.
 */
template <typename Work, typename... Queues>
std::array<double, sizeof...(Queues)>
alternate(int rounds, Work &&work, Queues &...qs)
{
    std::array<double, sizeof...(Queues)> best{};
    const int block =
        (rounds + blocksPerWorkload - 1) / blocksPerWorkload;
    for (int done = 0; done < rounds; done += block) {
        const int n = std::min(block, rounds - done);
        size_t k = 0;
        ((best[k] = std::max(best[k], work(qs, n)), ++k), ...);
    }
    return best;
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
    // Schedule+fire again with a pick-0 ScheduleController installed:
    // the price of the explorer's controlled fire path when it IS
    // active (the absent-controller numbers gate the default path).
    Pick0Controller p0;
    EventQueue cq;

    // Warm the engines so vector growth happens off the clock.
    schedFireWorkload(nq, 10, perRound, sink);
    schedFireWorkload(lq, 10, perRound, sink);
    schedFireWorkload(cq, 10, perRound, sink);

    cq.setScheduleController(&p0);
    auto [nSf, lSf, cSf] = alternate(
        rounds,
        [&](auto &q, int n) {
            return schedFireWorkload(q, n, perRound, sink);
        },
        nq, lq, cq);
    cq.setScheduleController(nullptr);
    auto [nCa, lCa] = alternate(
        rounds,
        [&](auto &q, int n) {
            return cancelHeavyWorkload(q, n, perRound, sink);
        },
        nq, lq);
    auto [nSt, lSt] = alternate(
        rounds / 4 + 1,
        [&](auto &q, int n) {
            return sameTickWorkload(q, n, 100, 9, sink);
        },
        nq, lq);

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
