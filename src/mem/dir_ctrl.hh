/**
 * @file
 * Home-node directory controller: a DASH-like invalidation protocol
 * engine with the paper's speculative-parallelization hooks.
 *
 * All transactions touching a line are serialized here, one at a
 * time, exactly as the paper requires ("the transactions added to
 * the cache coherence protocol are designed so that they are all
 * serialized in the directory"). A transaction runs to completion --
 * including remote legs (owner forwards, invalidation acks, nested
 * read-ins) -- before the next queued request for that line starts.
 *
 * Dirty lines are served by forwarding: the home sends the owner a
 * ReadFwd/WriteFwd; the owner replies directly to the requester
 * (giving the 3-hop latency of section 5.1) and sends the line +
 * its access bits back to the home (ShareWb / OwnXfer), at which
 * point the home merges the bits and runs the speculation check of
 * Figs. 6(b)/6(d) with exactly the paper's merge-then-test order.
 *
 * A request is never copied here: the home retains the network's
 * pooled copy of it (Network::retain()) from its arrival until its
 * transaction finishes, queued or active, and processes it in place.
 */

#ifndef SPECRT_MEM_DIR_CTRL_HH
#define SPECRT_MEM_DIR_CTRL_HH

#include <functional>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/cache.hh"
#include "mem/directory.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "mem/spec_iface.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace specrt
{

/** The directory controller of one home node. */
class DirCtrl : public StatGroup
{
  public:
    DirCtrl(NodeId node, EventQueue &eq, Network &net, AddrMap &mem,
            const MachineConfig &config);

    /** Attach the speculation hardware (may be null: plain machine). */
    void setSpecUnit(SpecDirIface *unit) { spec = unit; }

    /** Network entry point. */
    void handle(const Msg &msg);

    /**
     * Continue a transaction a spec unit previously deferred
     * (read-in finished). Runs the base protocol action now.
     */
    void resumeDeferred(Addr line_addr);

    /**
     * Drop all transaction + directory state (run boundary). Runs
     * within DsmSystem::resetMachine(), after Network::reset() took
     * back the requests this home retained.
     */
    void reset();

    Directory &directory() { return dir; }
    NodeId nodeId() const { return node; }

    /** Transactions fully processed. */
    uint64_t numTxns() const { return static_cast<uint64_t>(txns.value()); }

    /** In-flight serialized transactions (quiesce check). */
    size_t numActiveTxns() const { return active.size(); }

    /**
     * True when @p line has an active transaction or queued requests
     * at this home (per-delivery invariant checker: cache tags and
     * directory state legitimately diverge mid-transaction).
     */
    bool
    lineBusy(Addr line) const
    {
        if (findActive(line))
            return true;
        for (const Msg *m : waiting) {
            if (m->lineAddr == line)
                return true;
        }
        return false;
    }
    /** Requests queued behind an active transaction. */
    size_t numQueuedReqs() const { return waiting.size(); }

  private:
    struct Txn
    {
        Addr line = invalidAddr;
        /** The request, retained from the network's pool until
         *  finishTxn() releases it; it never moves. */
        Msg *req = nullptr;
        /** Per-node bitmask of invalidation acks still outstanding
         *  (a mask, not a count, so duplicate acks dedup cleanly). */
        uint64_t ackWait = 0;
        bool deferred = false;
        /** Waiting for ShareWb/OwnXfer from the old owner. */
        bool awaitingOwner = false;
    };

    /** True if this message type opens a new serialized transaction. */
    static bool startsTxn(MsgType t);

    /** Retain an arriving request; start it or queue it. */
    void enqueue(const Msg &msg);
    /**
     * Open a serialized transaction for the retained @p req and
     * schedule it. @p enq_tick is when the request first reached
     * this home (queue wait is attributed from there).
     */
    void beginTxn(Msg *req, Tick enq_tick);
    /** Start the next queued request for @p line, if any. */
    void tryStart(Addr line);
    /** Scheduled entry point: run the active transaction's request. */
    void runTxn(Addr line);
    /** Begin processing @p msg (line marked busy). */
    void process(const Msg &msg);
    /** Base protocol action for ReadReq/WriteReq (after spec hook). */
    void processBase(const Msg &req);
    void processWriteback(const Msg &msg);
    void processSpecMsg(const Msg &msg);

    void onShareWb(const Msg &msg);
    void onOwnXfer(const Msg &msg);
    void onInvalAck(const Msg &msg);

    /** Send a data reply (ReadReply/WriteReply) out of memory. */
    void replyFromMemory(const Msg &req, bool write, Cycles delay);

    /** Release the request and start the line's next one. */
    void finishTxn(Addr line);

    Txn *findActive(Addr line);
    const Txn *findActive(Addr line) const;

    /** Occupancy: processing start time for a new transaction. */
    Tick claimController();

    NodeId node;
    EventQueue &eq;
    Network &net;
    AddrMap &mem;
    const MachineConfig &cfg;
    SpecDirIface *spec = nullptr;

    Directory dir;
    /**
     * In-flight serialized transactions and the requests queued
     * behind them, both pointing at retained copies in the network's
     * pool. Flat vectors, not maps: both sets are tiny (one txn per
     * contended line, queues bounded by the requesters), so a linear
     * scan beats hash-node churn, and the capacity is reused forever
     * -- no allocation per transaction.
     */
    std::vector<Txn> active;
    std::vector<Msg *> waiting;
    /** Arrival tick of each waiting[] request (parallel vector). */
    std::vector<Tick> waitingSince;
    Tick nextFree = 0;
    /** Duplicates/strays tolerated instead of asserted. */
    bool lenient = false;

    Scalar txns;
    Scalar fwds;
    Scalar invalsSent;
    Scalar queuedCycles;

  public:
    Scalar dupRequests;
    Scalar strayMsgs;
};

} // namespace specrt

#endif // SPECRT_MEM_DIR_CTRL_HH
