/**
 * @file
 * Validates the machine against the paper's section 5.1 latency
 * table: unloaded round-trip latencies of 1 / 12 / 60 / 208 / 291
 * cycles to the primary cache, secondary cache, local memory,
 * 2-hop remote memory, and 3-hop remote memory (dirty in a third
 * node's cache).
 */

#include <cstdio>

#include "mem/dsm.hh"
#include "harness.hh"

using namespace specrt;
using namespace specrt::bench;

namespace
{

struct Probe
{
    MachineConfig cfg;
    std::unique_ptr<DsmSystem> dsm;
    const Region *r;

    Probe()
    {
        cfg.numProcs = 4;
        dsm = std::make_unique<DsmSystem>(cfg);
        int id = dsm->memory().alloc("probe", 1024 * 1024 + 4096, 4,
                                     Placement::Fixed, 0);
        r = &dsm->memory().region(id);
    }

    Tick
    load(NodeId n, Addr a)
    {
        Tick t0 = dsm->eventQueue().curTick();
        Tick t1 = t0;
        dsm->cacheCtrl(n).load(a, 4, 1, [&](uint64_t) {
            t1 = dsm->eventQueue().curTick();
        });
        dsm->eventQueue().run();
        return t1 - t0;
    }

    void
    store(NodeId n, Addr a)
    {
        dsm->cacheCtrl(n).store(a, 4, 1, 1);
        dsm->eventQueue().run();
    }
};

} // namespace

SPECRT_BENCH_MAIN(latency_table)
{
    printHeader("Section 5.1 latency table: unloaded round trips "
                "(cycles)");

    Probe p;
    Addr a = p.r->base;

    // L1 hit: load twice from the home node.
    p.load(1, a);
    Tick l1 = p.load(1, a);

    // L2 hit: displace the L1 entry only (conflicting L1 set, 512
    // lines away; different L2 set).
    p.load(1, a + 512 * 64);
    Tick l2 = p.load(1, a);

    // Local memory: cold access from the home node.
    Tick local = p.load(0, a + 64);

    // Remote clean (2 hops): cold access from a non-home node.
    Tick remote2 = p.load(2, a + 128);

    // Remote dirty (3 hops): dirty in a third node's cache.
    p.store(1, a + 192);
    Tick remote3 = p.load(2, a + 192);

    std::vector<int> w = {26, 10, 10, 8};
    printRow({"level", "paper", "measured", "match"}, w);
    auto row = [&](const char *name, Tick paper, Tick got) {
        printRow({name, fmtTicks(paper), fmtTicks(got),
                  paper == got ? "yes" : "NO"},
                 w);
    };
    row("primary cache (L1)", 1, l1);
    row("secondary cache (L2)", 12, l2);
    row("local memory", 60, local);
    row("remote memory, 2 hops", 208, remote2);
    row("remote memory, 3 hops", 291, remote3);

    bool all = l1 == 1 && l2 == 12 && local == 60 && remote2 == 208 &&
               remote3 == 291;
    std::printf("\n%s\n", all ? "All five round trips match the paper."
                              : "MISMATCH against the paper's table!");
    telemetry().metric("latency_matches", all ? 5 : 0);
    telemetry().simTicks += p.dsm->eventQueue().curTick();
    telemetry().eventsFired += p.dsm->eventQueue().numFired();
    return all ? 0 : 1;
}
