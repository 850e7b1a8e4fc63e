#include "mem/network.hh"

#include <algorithm>

#include "obs/event_log.hh"
#include "sim/logging.hh"
#include "sim/stall.hh"
#include "sim/trace.hh"

namespace specrt
{

namespace
{

/** Trace one send attempt; returns the flow id for its deliveries. */
uint64_t
traceSend(const Msg &msg, Tick tick)
{
    auto &buf = trace::buffer();
    uint64_t flow = buf.nextFlow();
    trace::TraceRecord r;
    r.tick = tick;
    r.op = trace::TraceOp::MsgSend;
    r.sub = static_cast<uint8_t>(msg.type);
    r.node = msg.src;
    r.peer = msg.dst;
    r.iter = msg.iter;
    r.addr = msg.elemAddr != invalidAddr ? msg.elemAddr : msg.lineAddr;
    r.a = msg.lineAddr;
    r.b = flow;
    r.label = msgTypeName(msg.type);
    buf.emit(r);
    return flow;
}

/** Trace one delivery of the send recorded under @p flow. */
void
traceRecv(const Msg &msg, Tick tick, uint64_t flow)
{
    trace::TraceRecord r;
    r.tick = tick;
    r.op = trace::TraceOp::MsgRecv;
    r.sub = static_cast<uint8_t>(msg.type);
    r.node = msg.dst;
    r.peer = msg.src;
    r.iter = msg.iter;
    r.addr = msg.elemAddr != invalidAddr ? msg.elemAddr : msg.lineAddr;
    r.a = msg.lineAddr;
    r.b = flow;
    r.label = msgTypeName(msg.type);
    trace::buffer().emit(r);
}

} // namespace

Network::Network(EventQueue &eq_, const MachineConfig &config)
    : StatGroup("network"),
      eq(eq_),
      hopLatency(config.lat.netHop),
      numNodes(config.numProcs),
      cacheHandlers(config.numProcs),
      dirHandlers(config.numProcs),
      msgs(this, "msgs", "total messages sent"),
      hopStat(this, "hops", "inter-node network traversals"),
      msgsRetried(this, "msgs_retried",
                  "dropped signals retransmitted by the NI"),
      msgsLost(this, "msgs_lost",
               "signals lost after exhausting retransmissions"),
      msgsByType(this, "msgs_by_type", "messages per MsgType", 32),
      retriesByType(this, "retries_by_type",
                    "NI retransmissions per MsgType", 32)
{
}

void
Network::setCacheHandler(NodeId node, Handler h)
{
    cacheHandlers.at(node) = std::move(h);
}

void
Network::setDirHandler(NodeId node, Handler h)
{
    dirHandlers.at(node) = std::move(h);
}

void
Network::send(const Msg &msg, Cycles extra_delay)
{
    transmit(msg, extra_delay, 0);
}

Msg *
Network::retain(const Msg &msg)
{
    SPECRT_ASSERT(&msg == delivering,
                  "retain() of a %s that is not being delivered",
                  msgTypeName(msg.type));
    Msg *m = delivering;
    delivering = nullptr;
    return m;
}

void
Network::transmit(const Msg &msg, Cycles extra_delay, int attempt)
{
    SPECRT_ASSERT(msg.src >= 0 &&
                  msg.src < static_cast<NodeId>(cacheHandlers.size()),
                  "bad msg src %d", msg.src);
    SPECRT_ASSERT(msg.dst >= 0 &&
                  msg.dst < static_cast<NodeId>(cacheHandlers.size()),
                  "bad msg dst %d", msg.dst);

    ++msgs;
    msgsByType[static_cast<size_t>(msg.type)] += 1;

    uint64_t flow = 0;
    if (trace::enabled())
        flow = traceSend(msg, eq.curTick());

    Cycles delay = extra_delay;
    if (msg.src != msg.dst) {
        delay += hopLatency;
        ++hops;
        ++hopStat;
        if (stall::Engine *e = stall::active()) {
            // Credit this hop to the load transaction it serves; the
            // requester's identity depends on the protocol leg.
            NodeId requester = msg.type == MsgType::ReadReq
                                   ? msg.src
                               : msg.type == MsgType::ReadFwd
                                   ? msg.requester
                               : msg.type == MsgType::ReadReply
                                   ? msg.dst
                                   : NodeId(-1);
            e->netLeg(requester, msg.txnSeq,
                      static_cast<double>(hopLatency));
        }
    }

    FaultDecision fd;
    ScheduleController *sc = eq.scheduleController();
    if (sc && sc->exploresFaults() && plan) {
        // Exploration mode: fault decisions are explorer choice
        // points, not random draws -- the DFS enumerates WHICH
        // message is lost or duplicated. Eligibility matches the
        // seeded plan's rules so every explored fate has a recovery
        // leg. Ineligible messages are not decision points at all.
        bool wd = plan->config().watchdogTimeout != 0;
        bool can_drop = FaultPlan::dropEligible(msg.type, wd);
        bool can_dup = FaultPlan::dupEligible(msg.type, wd);
        size_t n = 1 + (can_drop ? 1 : 0) + (can_dup ? 1 : 0);
        if (n > 1) {
            FaultChoicePoint p{eq.curTick(),
                               static_cast<uint16_t>(msg.type),
                               static_cast<uint16_t>(msg.src),
                               static_cast<uint16_t>(msg.dst),
                               can_drop, can_dup};
            size_t alt = sc->pickFault(p, n);
            if (alt >= n)
                alt = n - 1;
            if (alt == 1)
                (can_drop ? fd.drop : fd.duplicate) = true;
            else if (alt == 2)
                fd.duplicate = true;
        }
    } else if (plan && plan->armed()) {
        fd = plan->decide(msg.type);
    }

    if (obs::enabled() && (fd.drop || fd.duplicate || fd.jitter)) {
        obs::faultInject(eq.curTick(),
                         fd.drop ? "drop"
                                 : fd.duplicate ? "dup" : "jitter",
                         msgTypeName(msg.type), msg.src, msg.dst);
    }

    if (fd.drop) {
        if (!FaultPlan::netRetransmits(msg.type))
            return; // request: the requester's watchdog retries it
        if (attempt >= plan->config().watchdogMaxRetries) {
            ++msgsLost;
            obs::faultInject(eq.curTick(), "lost",
                             msgTypeName(msg.type), msg.src, msg.dst);
            if (lostHook) {
                lostHook(msg, "speculation signal");
                return;
            }
            panic("%s src %d dst %d line %#llx lost: retransmission "
                  "budget exhausted and no degradation hook installed",
                  msgTypeName(msg.type), msg.src, msg.dst,
                  (unsigned long long)msg.lineAddr);
        }
        scheduleRetransmit(msg, attempt + 1);
        return;
    }

    if (fd.duplicate)
        deliver(msg, delay, fd.jitter, flow);
    deliver(msg, delay, fd.jitter, flow);
}

void
Network::deliver(const Msg &msg, Cycles delay, Cycles jitter,
                 uint64_t flow)
{
    bool to_dir = msgToHome(msg.type) || msg.type == MsgType::ShareWb ||
                  msg.type == MsgType::OwnXfer ||
                  msg.type == MsgType::InvalAck ||
                  msg.type == MsgType::ReadInReply;
    Handler &h = to_dir ? dirHandlers.at(msg.dst)
                        : cacheHandlers.at(msg.dst);
    SPECRT_ASSERT(h, "no handler for %s at node %d",
                  msgTypeName(msg.type), msg.dst);

    // While the plan is armed, clamp behind the latest delivery
    // already scheduled on this (src,dst) channel so jitter cannot
    // reorder a channel.
    Tick when = eq.curTick() + delay + jitter;
    if (plan && plan->armed()) {
        if (channelFloor.empty())
            channelFloor.resize(static_cast<size_t>(numNodes) * numNodes,
                                0);
        Tick &floor =
            channelFloor[static_cast<size_t>(msg.src) * numNodes + msg.dst];
        when = std::max(when, floor);
        floor = when;
    }
    ++inFlight;
    eq.schedule(
        when,
        [this, &h, m = hold(msg), flow]() {
            --inFlight;
            if (trace::enabled())
                traceRecv(*m, eq.curTick(), flow);
            delivering = m;
            h(*m);
            if (delivering) // the handler did not retain it
                freeCopies.push_back(m);
            delivering = nullptr;
        },
        EventKind::Network, static_cast<uint16_t>(msg.dst));
}

void
Network::scheduleRetransmit(const Msg &msg, int attempt)
{
    const FaultConfig &fc = plan->config();
    int shift = std::min(attempt - 1, 16);
    Cycles backoff = fc.watchdogTimeout << shift;
    ++pendingRetransmits;
    eq.scheduleIn(
        backoff,
        [this, m = hold(msg), attempt]() {
            --pendingRetransmits;
            ++msgsRetried;
            retriesByType[static_cast<size_t>(m->type)] += 1;
            transmit(*m, 0, attempt);
            freeCopies.push_back(m);
        },
        EventKind::Network, static_cast<uint16_t>(msg.dst));
}

Msg *
Network::hold(const Msg &msg)
{
    if (freeCopies.empty())
        return &copies.emplace_back(msg);
    Msg *m = freeCopies.back();
    freeCopies.pop_back();
    *m = msg;
    return m;
}

void
Network::reset()
{
    std::fill(channelFloor.begin(), channelFloor.end(), 0);
    pendingRetransmits = 0;
    // The event-queue reset that accompanies a machine reset dropped
    // every scheduled delivery and retransmission, and the directory
    // resets that follow it forget the copies they retained.
    inFlight = 0;
    delivering = nullptr;
    freeCopies.clear();
    for (Msg &m : copies)
        freeCopies.push_back(&m);
}

} // namespace specrt
