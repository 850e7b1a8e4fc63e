/**
 * @file
 * Host-speed microbenchmarks (google-benchmark): how fast the
 * simulator's hot paths run on the host machine. Useful when tuning
 * the simulator itself -- these are host nanoseconds, not simulated
 * cycles.
 */

#include <benchmark/benchmark.h>

#include "mem/cache.hh"
#include "mem/dsm.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "spec/nonpriv.hh"
#include "spec/oracle.hh"
#include "spec/priv.hh"

using namespace specrt;

namespace
{

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    EventQueue eq;
    int sink = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            eq.scheduleIn(static_cast<Cycles>(i % 97),
                          [&sink]() { ++sink; });
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleFire);

void
BM_RngNextBounded(benchmark::State &state)
{
    Rng rng(1);
    uint64_t acc = 0;
    for (auto _ : state)
        acc += rng.nextBounded(12345);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNextBounded);

void
BM_NonPrivDirLogic(benchmark::State &state)
{
    NPDirBits d;
    int64_t i = 0;
    for (auto _ : state) {
        NodeId n = static_cast<NodeId>(i++ & 1);
        benchmark::DoNotOptimize(npDirRead(d, 0));
        benchmark::DoNotOptimize(npDirRead(d, n));
    }
}
BENCHMARK(BM_NonPrivDirLogic);

void
BM_PrivSharedDirLogic(benchmark::State &state)
{
    PrivSharedDirBits d;
    IterNum iter = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(privSDirFirstWrite(d, iter));
        benchmark::DoNotOptimize(privSDirReadFirst(d, iter));
        ++iter;
    }
}
BENCHMARK(BM_PrivSharedDirLogic);

void
BM_SimulatedLocalLoad(benchmark::State &state)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 1 << 20, 4, Placement::Fixed, 0);
    const Region &r = dsm.memory().region(id);
    uint64_t e = 0;
    for (auto _ : state) {
        uint64_t v = 0;
        dsm.cacheCtrl(0).load(r.elemAddr(e % r.numElems()), 4, 1,
                              [&](uint64_t val) { v = val; });
        dsm.eventQueue().run();
        benchmark::DoNotOptimize(v);
        e += 16; // a fresh line each time
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatedLocalLoad);

/** Sets a NodeCache row touches: about what one node of a 16-node
 *  P3m HW run fills. */
constexpr uint64_t cacheRowLines = 2048;

/** Line @p i of the rows' working set, visited in a scrambled order
 *  (odd stride over a power-of-two count: every line once per lap). */
Addr
rowLine(const NodeCache &cache, uint64_t i)
{
    return 0x100000 + (i * 7 % cacheRowLines) * cache.lineBytes();
}

/** A warm L2 hit: the tag compare and the word read of a load. */
void
BM_L2HitRead(benchmark::State &state)
{
    MachineConfig cfg;
    NodeCache cache(cfg);
    std::vector<uint8_t> data(cache.lineBytes(), 7);
    for (uint64_t i = 0; i < cacheRowLines; ++i)
        cache.fill(rowLine(cache, i), LineState::Shared, data.data(),
                   [](const L2Set &) {});
    uint64_t acc = 0;
    uint64_t i = 0;
    for (auto _ : state) {
        Addr a = rowLine(cache, i++) + 8;
        const L2Set *line = cache.findLine(a);
        acc += NodeCache::readWordIn(*line, a, 4);
    }
    benchmark::DoNotOptimize(acc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2HitRead);

/** A fill that displaces a Dirty line of another tag in its set. */
void
BM_L2FillDirtyVictim(benchmark::State &state)
{
    MachineConfig cfg;
    NodeCache cache(cfg);
    std::vector<uint8_t> data(cache.lineBytes(), 7);
    const Addr conflict = cache.numL2Lines() * cache.lineBytes();
    auto onVictim = [](const L2Set &victim) {
        benchmark::DoNotOptimize(victim.data);
    };
    for (uint64_t i = 0; i < cacheRowLines; ++i)
        cache.fill(rowLine(cache, i), LineState::Dirty, data.data(),
                   onVictim);
    uint64_t i = 0;
    for (auto _ : state) {
        // Each lap swaps every set between its two conflicting tags.
        uint64_t lap = i / cacheRowLines;
        Addr a = rowLine(cache, i++) + (lap & 1 ? 0 : conflict);
        benchmark::DoNotOptimize(
            cache.fill(a, LineState::Dirty, data.data(), onVictim));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_L2FillDirtyVictim);

void
BM_OracleLrpd(benchmark::State &state)
{
    Rng rng(7);
    std::vector<AccessEvent> trace;
    for (IterNum i = 1; i <= 256; ++i) {
        for (int a = 0; a < 4; ++a)
            trace.push_back({static_cast<NodeId>(i % 8), i,
                             rng.nextBounded(64), rng.nextBool(0.4),
                             0});
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(Oracle::lrpd(trace));
    state.SetItemsProcessed(state.iterations() * trace.size());
}
BENCHMARK(BM_OracleLrpd);

} // namespace

BENCHMARK_MAIN();
