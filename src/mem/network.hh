/**
 * @file
 * Interconnection network of the modeled machine.
 *
 * As in the paper, the global network is abstracted as a constant
 * per-traversal latency with no contention ("we model contention in
 * the whole system except in the global network, which is abstracted
 * away as a constant latency"). Messages between distinct nodes take
 * lat.netHop cycles; intra-node messages are immediate. Delivery
 * between any src/dst pair is in send order (the paper's algorithms
 * assume in-order delivery).
 *
 * A FaultPlan (sim/fault.hh) may be attached: while armed it can
 * jitter, duplicate, or drop messages. Jitter never reorders a
 * (src,dst) channel -- each channel remembers its latest scheduled
 * delivery and later sends are clamped behind it. Dropped
 * fire-and-forget speculation signals are retransmitted by the
 * network interface with exponential backoff; dropped requests are
 * recovered by the requester's watchdog (cache_ctrl).
 *
 * The network's pool holds the only copy a message gets. send()
 * copies the sender's message into it once; each scheduled delivery
 * or retransmission holds one pooled copy, and the copy goes back to
 * the pool when the event fires, so steady-state traffic allocates
 * nothing. A handler that needs the message after its delivery (the
 * home directory, whose requests wait for their line) keeps the
 * delivered copy with retain() and hands it back with release().
 */

#ifndef SPECRT_MEM_NETWORK_HH
#define SPECRT_MEM_NETWORK_HH

#include <deque>
#include <functional>
#include <vector>

#include "mem/msg.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"

namespace specrt
{

/**
 * Routes messages to per-node handlers with constant latency.
 */
class Network : public StatGroup
{
  public:
    using Handler = std::function<void(const Msg &)>;
    /** Fired when a retransmitted signal exhausts its retry budget. */
    using LostHook = std::function<void(const Msg &, const char *)>;

    Network(EventQueue &eq, const MachineConfig &config);

    /** Install the cache-controller handler for @p node. */
    void setCacheHandler(NodeId node, Handler h);

    /** Install the directory-controller handler for @p node. */
    void setDirHandler(NodeId node, Handler h);

    /** Attach the fault schedule (null = fault-free). */
    void setFaultPlan(FaultPlan *p) { plan = p; }

    /** Install the lost-transaction hook (degradation path). */
    void setLostHook(LostHook h) { lostHook = std::move(h); }

    /**
     * Send @p msg from msg.src to msg.dst after @p extra_delay cycles
     * of sender-side processing. The message is dispatched to the
     * destination's directory handler for home-bound types, else to
     * its cache handler.
     */
    void send(const Msg &msg, Cycles extra_delay = 0);

    /**
     * Keep the copy a handler is being delivered past its delivery:
     * @p msg must be the message the running handler was given. The
     * caller holds the returned copy until it hands it to release()
     * or a machine reset frees it.
     */
    Msg *retain(const Msg &msg);

    /** Hand back a copy taken with retain(). */
    void release(Msg *msg) { freeCopies.push_back(msg); }

    /**
     * Drop channel-ordering floors and retransmission bookkeeping,
     * and mark every message copy free, retained ones included. Call
     * it right after the owning event queue's reset(), which drops
     * the pending deliveries and retransmissions that held those
     * copies.
     */
    void reset();

    /** Network traversals between distinct nodes. */
    uint64_t numHops() const { return hops; }
    /** Total messages sent (including intra-node). */
    uint64_t numMsgs() const { return static_cast<uint64_t>(msgs.value()); }
    /** Signal retransmissions still scheduled (quiesce check). */
    size_t numPendingRetransmits() const { return pendingRetransmits; }
    /** Deliveries scheduled but not yet handed over (timeline gauge). */
    size_t numInFlight() const { return inFlight; }

  private:
    /** One transmission attempt (attempt > 0 for retransmissions). */
    void transmit(const Msg &msg, Cycles extra_delay, int attempt);
    /**
     * Deliver one copy at base delay + @p jitter; while the fault
     * plan is armed, never before the channel's latest delivery.
     * @p flow is the trace flow id tying this delivery back to its
     * MsgSend record (0 = tracing off at send time).
     */
    void deliver(const Msg &msg, Cycles delay, Cycles jitter,
                 uint64_t flow);
    /** Schedule a backoff retransmission of a dropped signal. */
    void scheduleRetransmit(const Msg &msg, int attempt);
    /** A pooled copy of @p msg for a scheduled event to hold. */
    Msg *hold(const Msg &msg);

    EventQueue &eq;
    Cycles hopLatency;
    int numNodes;

    /**
     * The message copies scheduled events and retaining handlers
     * hold. A deque never moves its elements as it grows, so a
     * holder keeps a plain pointer. An event hands its copy back to
     * freeCopies when it fires, unless its handler retained it;
     * reset() hands back every copy, those of the events the queue's
     * reset dropped and the retained ones. An event destroyed unfired
     * hands back nothing, because a machine's event queue outlives
     * its network (mem/dsm.hh).
     */
    std::deque<Msg> copies;
    /** Copies no pending event or handler holds. */
    std::vector<Msg *> freeCopies;
    /** The copy whose handler is running, until it is retained. */
    Msg *delivering = nullptr;

    std::vector<Handler> cacheHandlers;
    std::vector<Handler> dirHandlers;

    FaultPlan *plan = nullptr;
    LostHook lostHook;
    /** Latest scheduled delivery tick per (src,dst) channel, indexed
     *  src * numNodes + dst (only touched under fault injection). */
    std::vector<Tick> channelFloor;
    size_t pendingRetransmits = 0;
    /** Scheduled deliveries not yet handed to their endpoint. */
    size_t inFlight = 0;

    uint64_t hops = 0;
    Scalar msgs;
    Scalar hopStat;

  public:
    Scalar msgsRetried;
    Scalar msgsLost;

    /** Per-message-type counters (index by MsgType value). */
    VectorStat msgsByType;
    /**
     * NI retransmissions per message class (index by MsgType value):
     * which kinds of dropped signal the fault watchdog actually had
     * to recover. Sums to msgsRetried.
     */
    VectorStat retriesByType;
};

} // namespace specrt

#endif // SPECRT_MEM_NETWORK_HH
