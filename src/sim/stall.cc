#include "sim/stall.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/critpath.hh"

namespace specrt
{
namespace stall
{

const char *
causeName(Cause c)
{
    switch (c) {
      case Cause::LoadMiss:     return "load_miss";
      case Cause::DirQueue:     return "dir_queue";
      case Cause::NetTransit:   return "net_transit";
      case Cause::RetryBackoff: return "retry_backoff";
      case Cause::Barrier:      return "barrier";
      case Cause::SchedWait:    return "sched_wait";
      case Cause::CommitSerial: return "commit_serial";
      case Cause::AbortRedo:    return "abort_redo";
      case Cause::Other:        return "other";
      default:                  return "?";
    }
}

const char *
causePrettyName(Cause c)
{
    switch (c) {
      case Cause::LoadMiss:     return "load-miss";
      case Cause::DirQueue:     return "dir-queue";
      case Cause::NetTransit:   return "net-transit";
      case Cause::RetryBackoff: return "retry-backoff";
      case Cause::Barrier:      return "barrier";
      case Cause::SchedWait:    return "sched-wait";
      case Cause::CommitSerial: return "commit-serial";
      case Cause::AbortRedo:    return "abort-redo";
      case Cause::Other:        return "other";
      default:                  return "?";
    }
}

double
CostBreakdown::stallTotal() const
{
    double sum = 0;
    for (double v : stalls)
        sum += v;
    return sum;
}

Cause
CostBreakdown::dominantCause() const
{
    size_t dom = 0;
    for (size_t c = 1; c < numCauses; ++c)
        if (stalls[c] > stalls[dom])
            dom = c;
    return static_cast<Cause>(dom);
}

double
CostBreakdown::dominantShare() const
{
    double sum = stallTotal();
    if (sum <= 0)
        return 0;
    return stalls[static_cast<size_t>(dominantCause())] / sum;
}

std::string
CostBreakdown::summary() const
{
    double total = stallTotal();
    if (!valid || total <= 0)
        return "";
    Cause dom = dominantCause();
    char buf[128];
    std::snprintf(buf, sizeof(buf), "run bounded %ld%% by %s",
                  std::lround(100.0 * stallOf(dom) / total),
                  causePrettyName(dom));
    return buf;
}

void
CostBreakdown::add(const CostBreakdown &c)
{
    if (!c.valid)
        return;
    valid = true;
    numProcs = std::max(numProcs, c.numProcs);
    perNodeTicks += c.perNodeTicks;
    nodeTicks += c.nodeTicks;
    busy += c.busy;
    for (size_t i = 0; i < numCauses; ++i)
        stalls[i] += c.stalls[i];
}

Engine *
current()
{
    return critpath::current().engine();
}

// --- Engine -----------------------------------------------------------

namespace
{

/** Per-cause stall descriptions (stat registry). */
const char *
causeDesc(Cause c)
{
    switch (c) {
      case Cause::LoadMiss:
        return "cycles stalled on the memory service of load misses";
      case Cause::DirQueue:
        return "cycles stalled in home-directory queues/occupancy";
      case Cause::NetTransit:
        return "cycles stalled on network transit";
      case Cause::RetryBackoff:
        return "cycles stalled in watchdog retry windows";
      case Cause::Barrier:
        return "cycles stalled on barrier imbalance + episodes";
      case Cause::SchedWait:
        return "cycles stalled on the scheduling lock";
      case Cause::CommitSerial:
        return "cycles stalled on commit/merge serialization";
      case Cause::AbortRedo:
        return "cycles lost to failed-speculation restore + redo";
      case Cause::Other:
        return "stall cycles attributed to no specific component";
      default:
        return "?";
    }
}

} // namespace

Engine::Engine(int num_procs, critpath::Recorder *txn_sink)
    : StatGroup("stall"),
      nProcs(num_procs),
      busy(this, "busy", "busy cycles (settled per phase)",
           static_cast<size_t>(num_procs)),
      overrun(this, "overrun",
              "cycles of busy work exceeding settled phase lengths"),
      pending(static_cast<size_t>(num_procs)),
      phaseMark(static_cast<size_t>(num_procs)),
      recorder(txn_sink)
{
    for (size_t c = 0; c < numCauses; ++c) {
        Cause cc = static_cast<Cause>(c);
        causes[c] = std::make_unique<VectorStat>(
            this, causeName(cc), causeDesc(cc),
            static_cast<size_t>(num_procs));
    }
    for (auto &m : phaseMark)
        m.fill(0.0);
}

void
Engine::loadBegin(NodeId n, uint64_t seq, Addr line, Addr elem,
                  IterNum iter, NodeId home, Tick now)
{
    PendingLoad &p = pending[static_cast<size_t>(n)];
    // A new miss before the previous scratch closed (the processor
    // was hard-stopped mid-load): the old record's credits stay
    // charged -- the waits were real -- and settlePhase() reconciles.
    p.open = true;
    p.seq = seq;
    p.line = line;
    p.elem = elem;
    p.iter = iter;
    p.home = home;
    p.start = now;
    p.dir = p.net = p.retry = 0;
}

void
Engine::dirWait(NodeId n, uint64_t seq, double wait)
{
    if (n < 0 || n >= nProcs || wait <= 0)
        return;
    PendingLoad &p = pending[static_cast<size_t>(n)];
    if (!p.open || p.seq != seq)
        return; // store txn or stray message: never charge blind
    charge(n, Cause::DirQueue, wait);
    p.dir += wait;
}

void
Engine::netLeg(NodeId n, uint64_t seq, double hop)
{
    if (n < 0 || n >= nProcs || hop <= 0)
        return;
    PendingLoad &p = pending[static_cast<size_t>(n)];
    if (!p.open || p.seq != seq)
        return;
    charge(n, Cause::NetTransit, hop);
    p.net += hop;
}

void
Engine::retryWindow(NodeId n, uint64_t seq, double w)
{
    if (n < 0 || n >= nProcs || w <= 0)
        return;
    PendingLoad &p = pending[static_cast<size_t>(n)];
    if (!p.open || p.seq != seq)
        return;
    charge(n, Cause::RetryBackoff, w);
    p.retry += w;
}

void
Engine::loadWait(NodeId n, double wait, Tick now)
{
    if (n < 0 || n >= nProcs || wait < 0)
        return;
    PendingLoad &p = pending[static_cast<size_t>(n)];
    if (!p.open) {
        // Local L2 service: no transaction left the node.
        charge(n, Cause::LoadMiss, wait);
        return;
    }
    // Component credits may exceed the wait the processor measured
    // (a retry window can overlap the reply). Give back the excess
    // in fixed order so attribution never exceeds measurement.
    double charged = p.dir + p.net + p.retry;
    if (charged > wait) {
        double excess = charged - wait;
        double t = std::min(p.retry, excess);
        charge(n, Cause::RetryBackoff, -t);
        p.retry -= t;
        excess -= t;
        t = std::min(p.net, excess);
        charge(n, Cause::NetTransit, -t);
        p.net -= t;
        excess -= t;
        t = std::min(p.dir, excess);
        charge(n, Cause::DirQueue, -t);
        p.dir -= t;
    }
    double service = wait - (p.dir + p.net + p.retry);
    charge(n, Cause::LoadMiss, service);
    if (recorder) {
        critpath::TxnRecord r;
        r.node = n;
        r.home = p.home;
        r.line = p.line;
        r.elem = p.elem;
        r.iter = p.iter;
        r.seq = p.seq;
        r.start = p.start;
        r.end = now;
        r.dirWait = p.dir;
        r.net = p.net;
        r.retry = p.retry;
        r.service = service;
        recorder->addTxn(r);
    }
    p.open = false;
}

void
Engine::charge(NodeId n, Cause c, double t)
{
    if (n < 0 || n >= nProcs || t == 0)
        return;
    (*causes[static_cast<size_t>(c)])[static_cast<size_t>(n)] += t;
}

CostBreakdown
Engine::breakdown(double run_ticks) const
{
    CostBreakdown b;
    b.valid = true;
    b.numProcs = nProcs;
    b.perNodeTicks = run_ticks;
    b.nodeTicks = nProcs * run_ticks;
    b.busy = busy.total();
    for (size_t c = 0; c < numCauses; ++c)
        b.stalls[c] = causes[c]->total();
    return b;
}

double
Engine::attributed(NodeId n) const
{
    double sum = 0;
    for (size_t c = 0; c < numCauses; ++c)
        sum += (*causes[c])[static_cast<size_t>(n)];
    return sum;
}

void
Engine::beginPhase()
{
    for (int n = 0; n < nProcs; ++n)
        for (size_t c = 0; c < numCauses; ++c)
            phaseMark[static_cast<size_t>(n)][c] =
                (*causes[c])[static_cast<size_t>(n)];
}

void
Engine::settlePhase(double phase_ticks,
                    const std::vector<double> &busy_delta,
                    Cause residual_cause)
{
    // Over-attribution give-back order: vaguest cause first, the
    // phase-level residual causes before the per-transaction ones.
    static constexpr Cause giveBack[] = {
        Cause::Other,        Cause::LoadMiss,   Cause::Barrier,
        Cause::SchedWait,    Cause::CommitSerial,
        Cause::RetryBackoff, Cause::NetTransit, Cause::DirQueue,
        Cause::AbortRedo,
    };

    for (int n = 0; n < nProcs; ++n) {
        size_t ni = static_cast<size_t>(n);
        double busy_d =
            ni < busy_delta.size() ? busy_delta[ni] : 0.0;
        double attr_d = 0;
        for (size_t c = 0; c < numCauses; ++c)
            attr_d += (*causes[c])[ni] - phaseMark[ni][c];
        double residual = phase_ticks - busy_d - attr_d;
        if (residual >= 0) {
            charge(n, residual_cause, residual);
        } else {
            double deficit = -residual;
            for (Cause c : giveBack) {
                size_t ci = static_cast<size_t>(c);
                double avail = (*causes[ci])[ni] - phaseMark[ni][ci];
                double take = std::min(avail, deficit);
                if (take > 0) {
                    (*causes[ci])[ni] -= take;
                    deficit -= take;
                }
                if (deficit <= 0)
                    break;
            }
            if (deficit > 0) {
                // Busy work alone exceeded the phase length (can
                // only happen under fault-injected abort races).
                // Trim busy so the invariant stays exact and leave
                // an audit trail.
                busy_d -= deficit;
                overrun += deficit;
            }
        }
        busy[ni] += busy_d;
    }
    settled += phase_ticks;
    beginPhase(); // re-mark: consecutive settles stay consistent
}

} // namespace stall
} // namespace specrt
