/**
 * @file
 * DsmSystem: one modeled CC-NUMA machine.
 *
 * Owns the event queue, the global address space, the network, and a
 * cache controller + directory controller per node, all wired
 * together. Higher layers (spec/, runtime/) attach speculation units
 * and processors on top.
 */

#ifndef SPECRT_MEM_DSM_HH
#define SPECRT_MEM_DSM_HH

#include <memory>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/cache_ctrl.hh"
#include "mem/dir_ctrl.hh"
#include "mem/network.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"

namespace specrt
{

/** A complete modeled machine. */
class DsmSystem : public StatGroup
{
  public:
    explicit DsmSystem(const MachineConfig &config);

    const MachineConfig &config() const { return cfg; }
    EventQueue &eventQueue() { return eq; }
    AddrMap &memory() { return mem; }
    Network &network() { return *net; }

    CacheCtrl &cacheCtrl(NodeId n) { return *caches.at(n); }
    DirCtrl &dirCtrl(NodeId n) { return *dirs.at(n); }
    int numProcs() const { return cfg.numProcs; }

    /**
     * The machine's fault schedule (built from cfg.fault). Always
     * present but disarmed by default; arm it around the phase that
     * should experience faults.
     */
    FaultPlan &faultPlan() { return *faults; }

    /**
     * Install the hook fired when a transaction or retransmitted
     * signal exhausts its retry budget (graceful degradation).
     * Without one, message loss panics.
     */
    void setTxnLostHook(std::function<void(const char *)> hook);

    /**
     * Run-boundary reset: flush all caches (committing or discarding
     * dirty data), clear all directory + transaction state, and drop
     * any pending events. The paper flushes the caches after every
     * loop execution; an aborted speculative run additionally
     * discards its dirty lines.
     */
    void resetMachine(bool commit_dirty);

    /** True when no transaction is in flight anywhere. */
    bool quiescent() const;

  private:
    MachineConfig cfg;
    EventQueue eq;
    AddrMap mem;
    std::unique_ptr<FaultPlan> faults;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<CacheCtrl>> caches;
    std::vector<std::unique_ptr<DirCtrl>> dirs;
};

} // namespace specrt

#endif // SPECRT_MEM_DSM_HH
