#include "mem/dsm.hh"

#include "sim/sim_context.hh"

namespace specrt
{

DsmSystem::DsmSystem(const MachineConfig &config)
    : StatGroup("system"), cfg(config), mem(config)
{
    cfg.validate();

    // Schedule exploration: a controller parked in the ambient
    // SimContext takes effect on every machine built under it, so
    // the explorer can steer runs whose machine is constructed deep
    // inside a driver (LoopExecutor::run() builds its own DsmSystem).
    if (ScheduleController *sc =
            SimContext::current().scheduleController)
        eq.setScheduleController(sc);

    faults = std::make_unique<FaultPlan>(cfg.fault);
    addChild(faults.get());
    net = std::make_unique<Network>(eq, cfg);
    net->setFaultPlan(faults.get());
    addChild(net.get());
    arenaStats = std::make_unique<ArenaStats>(
        SimContext::current().msgArena());
    addChild(arenaStats.get());

    caches.reserve(cfg.numProcs);
    dirs.reserve(cfg.numProcs);
    for (NodeId n = 0; n < cfg.numProcs; ++n) {
        caches.push_back(
            std::make_unique<CacheCtrl>(n, eq, *net, mem, cfg));
        dirs.push_back(
            std::make_unique<DirCtrl>(n, eq, *net, mem, cfg));
        addChild(caches.back().get());
        addChild(dirs.back().get());

        CacheCtrl *cc = caches.back().get();
        DirCtrl *dc = dirs.back().get();
        net->setCacheHandler(n, [cc](const Msg &m) { cc->handle(m); });
        net->setDirHandler(n, [dc](const Msg &m) { dc->handle(m); });
    }
}

void
DsmSystem::setTxnLostHook(std::function<void(const char *)> hook)
{
    net->setLostHook(
        [hook](const Msg &, const char *what) { hook(what); });
    for (auto &cc : caches) {
        cc->setLostHook(
            [hook](NodeId, Addr, const char *what) { hook(what); });
    }
}

void
DsmSystem::resetMachine(bool commit_dirty)
{
    // The event-queue reset discards in-flight deliveries, pending
    // retransmissions, and armed watchdog timers wholesale; the
    // network and cache resets then drop the matching bookkeeping
    // (channel FIFO floors, retransmit counts, watchdog handles).
    eq.reset();
    net->reset();
    for (auto &cc : caches)
        cc->reset(commit_dirty);
    for (auto &dc : dirs)
        dc->reset();
}

bool
DsmSystem::quiescent() const
{
    for (const auto &cc : caches) {
        if (!cc->quiescent())
            return false;
    }
    return true;
}

} // namespace specrt
