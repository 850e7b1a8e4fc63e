/**
 * @file
 * Host-speed microbenchmarks (google-benchmark): how fast the
 * simulator's hot paths run on the host machine. Useful when tuning
 * the simulator itself -- these are host nanoseconds, not simulated
 * cycles.
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "mem/cache.hh"
#include "mem/dsm.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "spec/nonpriv.hh"
#include "spec/oracle.hh"
#include "spec/priv.hh"
#include "spec/spec_unit.hh"

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

/** Node @p reader misses on a fresh line homed at node 0 each time. */
void
timeMisses(benchmark::State &state, NodeId reader)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 1 << 20, 4, Placement::Fixed, 0);
    const Region &r = dsm.memory().region(id);
    uint64_t e = 0;
    for (auto _ : state) {
        uint64_t v = 0;
        dsm.cacheCtrl(reader).load(r.elemAddr(e % r.numElems()), 4, 1,
                                   [&](uint64_t val) { v = val; });
        dsm.eventQueue().run();
        benchmark::DoNotOptimize(v);
        e += 16; // a fresh line each time
    }
    state.SetItemsProcessed(state.iterations());
}

/** A local miss: node 0 reads its own memory. */
void
BM_SimulatedLocalLoad(benchmark::State &state)
{
    timeMisses(state, 0);
}
BENCHMARK(BM_SimulatedLocalLoad);

/** A 2-hop miss: node 1 reads a line homed at node 0 -- ReadReq, the
 *  home's transaction, ReadReply, fill. */
void
BM_SimulatedRemoteLoad(benchmark::State &state)
{
    timeMisses(state, 1);
}
BENCHMARK(BM_SimulatedRemoteLoad);

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

/**
 * A 16-processor HW machine whose translation table holds P3m's test
 * ranges: two privatized arrays, each a shared region plus one
 * private copy per processor (34 ranges), then one non-privatized
 * array. Plain data sits below them.
 */
struct P3mTable
{
    static MachineConfig
    config()
    {
        MachineConfig cfg;
        cfg.numProcs = 16;
        return cfg;
    }

    DsmSystem dsm{config()};
    SpecSystem spec{dsm};
    const Region *plain = nullptr;
    const Region *lastCopy = nullptr;

    P3mTable()
    {
        AddrMap &mem = dsm.memory();
        auto alloc = [&](const std::string &name, Placement pl,
                         NodeId node) {
            return &mem.region(mem.alloc(name, 4000, 4, pl, node));
        };
        plain = alloc("pos", Placement::RoundRobin, 0);
        for (const char *ws : {"force_ws", "phi_ws"}) {
            const Region *shared = alloc(ws, Placement::RoundRobin, 0);
            std::vector<const Region *> copies;
            for (NodeId p = 0; p < dsm.numProcs(); ++p)
                copies.push_back(alloc(std::string(ws) + "_priv" +
                                           std::to_string(p),
                                       Placement::Fixed, p));
            spec.table().addPriv(*shared, copies);
            lastCopy = copies.back();
        }
        spec.table().addNonPriv(*alloc("grid", Placement::RoundRobin, 0));
    }
};

/** 1024 element addresses of @p r, visited in turn. */
std::vector<Addr>
elemAddrs(const Region &r)
{
    std::vector<Addr> out;
    for (uint64_t i = 0; i < 1024; ++i)
        out.push_back(r.elemAddr(i * 7 % r.numElems()));
    return out;
}

/** The spec units' classification of one access: a hit on the last
 *  registered private copy, or a miss on plain data. */
void
BM_TranslationTableLookup(benchmark::State &state, bool hit)
{
    P3mTable m;
    std::vector<Addr> addrs = elemAddrs(hit ? *m.lastCopy : *m.plain);
    const TranslationTable &table = m.spec.table();
    uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(table.lookup(addrs[i++ & 1023]));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TranslationTableLookup, hit_last_copy, true);
BENCHMARK_CAPTURE(BM_TranslationTableLookup, miss_plain, false);

/** The home node of each message's address, cycling over regions. */
void
BM_AddrMapHomeOf(benchmark::State &state)
{
    P3mTable m;
    const AddrMap &mem = m.dsm.memory();
    std::vector<Addr> addrs;
    for (uint64_t i = 0; i < 1024; ++i) {
        const Region &r = mem.region(static_cast<int>(
            i * 5 % mem.numRegions()));
        addrs.push_back(r.elemAddr(i * 7 % r.numElems()));
    }
    uint64_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.homeOf(addrs[i++ & 1023]));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AddrMapHomeOf);

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
