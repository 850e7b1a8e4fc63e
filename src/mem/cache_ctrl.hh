/**
 * @file
 * Per-node cache controller: two-level cache, write buffer,
 * writeback buffer, and the cache side of the DASH-like protocol.
 *
 * Processor-visible semantics follow the paper's machine model:
 * loads block until data returns; stores retire into a write buffer
 * and the processor does not stall on write misses (it only stalls
 * when the buffer is full). The speculation unit (spec/) is invoked
 * at the access points of section 4.2: on cache hits, on fills, and
 * when dirty lines leave the cache.
 */

#ifndef SPECRT_MEM_CACHE_CTRL_HH
#define SPECRT_MEM_CACHE_CTRL_HH

#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/addr_map.hh"
#include "mem/cache.hh"
#include "mem/msg.hh"
#include "mem/network.hh"
#include "mem/spec_iface.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/small_function.hh"
#include "sim/stats.hh"

namespace specrt
{

/** The cache controller of one node. */
class CacheCtrl : public StatGroup
{
  public:
    /**
     * Load-completion callback. A small-buffer type: the processor's
     * completion captures ~20 bytes, which overflows std::function's
     * 16-byte SBO and cost one heap allocation per load. The 40-byte
     * inline buffer keeps sizeof(LoadDone) at 56, so the hit path's
     * continuation (LoadDone + loaded value = 64 bytes) still fits
     * inside the event queue's 80-byte SmallFunction buffer.
     */
    using LoadDone = SmallCallback<void(uint64_t), 40>;
    using Notice = std::function<void()>;
    /** Fired when a transaction exhausts its watchdog retries. */
    using LostHook = std::function<void(NodeId, Addr, const char *)>;

    CacheCtrl(NodeId node, EventQueue &eq, Network &net, AddrMap &mem,
              const MachineConfig &config);

    /** Attach the speculation hardware (may be null). */
    void setSpecUnit(SpecCacheIface *unit) { spec = unit; }

    /**
     * Issue a blocking load of @p size bytes at @p addr.
     * @p done fires (with the value) once the data is available;
     * the full access latency has elapsed by then. At most one load
     * may be outstanding (the modeled processor blocks on loads).
     */
    void load(Addr addr, uint32_t size, IterNum iter, LoadDone done);

    /**
     * Enqueue a store into the write buffer.
     * @return false if the buffer is full (caller stalls and retries
     * after a slot-free notice).
     */
    bool store(Addr addr, uint32_t size, uint64_t value, IterNum iter);

    /** Invoked every time a write-buffer entry retires. */
    void setSlotFreeNotice(Notice n) { slotFreeNotice = std::move(n); }

    /**
     * One-shot notice when the write buffer is empty and no store
     * transaction is in flight (used at iteration boundaries).
     */
    void requestDrainNotice(Notice n);

    /** Network entry point. */
    void handle(const Msg &msg);

    /**
     * Install the lost-transaction hook (graceful degradation).
     * Without one, watchdog exhaustion panics.
     */
    void setLostHook(LostHook h) { lostHook = std::move(h); }

    /**
     * Run-boundary flush. Dirty lines are either committed straight
     * into the backing store (@p commit_dirty) or discarded (aborted
     * speculative run). All transaction state must be quiescent.
     */
    void reset(bool commit_dirty);

    /** True when no load/store/writeback activity is in flight. */
    bool quiescent() const;

    /**
     * True when this controller has any in-flight activity touching
     * @p line: an outstanding load/store transaction, a buffered
     * write to it, a buffered writeback, or a parked forward. The
     * per-delivery invariant checker skips such lines -- their cache
     * tags and home state legitimately disagree mid-transaction.
     */
    bool lineBusy(Addr line) const;

    NodeCache &cacheArray() { return cache; }
    NodeId nodeId() const { return node; }

  private:
    struct WbEntry
    {
        Addr addr;
        uint32_t size;
        uint64_t value;
        IterNum iter;
    };

    struct LoadTxn
    {
        Addr line;
        Addr elem;
        uint32_t size;
        IterNum iter;
        LoadDone done;
        bool invalPending = false;
        /** Sequence echoed by every reply of this transaction. */
        uint64_t seq = 0;
        /** Watchdog retries already performed. */
        int attempts = 0;
        EventId watchdog = invalidEventId;
    };

    struct WbBufEntry
    {
        MsgData data;
        MsgBits bits;
    };

    struct BlockedLoad
    {
        Addr addr;
        uint32_t size;
        IterNum iter;
        LoadDone done;
    };

    Addr lineOf(Addr a) const { return cache.lineAlign(a); }
    NodeId homeOf(Addr a) const { return mem.homeOf(a); }

    bool wbHasLine(Addr line) const;
    void scheduleDrain();
    void drainHead();
    void popHead();

    void onReadReply(const Msg &msg);
    void onWriteReply(const Msg &msg);
    void onInval(const Msg &msg);
    void onFwd(const Msg &msg);
    void serveFwd(const Msg &msg);
    void onWritebackAck(const Msg &msg);

    /** (Re)issue the request of the outstanding load transaction. */
    void sendLoadReq(Cycles extra_delay);
    /** (Re)issue the request of the outstanding store transaction. */
    void sendStoreReq(Cycles extra_delay);
    /** Arm the transaction watchdog (no-op when disabled). */
    EventId armWatchdog(bool is_load, uint64_t seq, int attempt);
    void onWatchdog(bool is_load, uint64_t seq);
    void txnLost(Addr elem, const char *what);

    /**
     * A WriteReply granted ownership nobody is waiting for (a
     * watchdog retry raced with the original grant). The line data
     * may exist nowhere else: buffer it and write it straight back
     * so home and memory converge, then serve any parked forwards.
     */
    void disownGrant(const Msg &msg);

    /**
     * Install a line; handles victim eviction (writeback of dirty
     * victims) and spec-bit installation + local application of the
     * triggering access.
     */
    void fillLine(const Msg &reply, LineState state, bool is_write);

    void evictDirty(const L2Set &victim);

    /** Re-issue the blocked loads no buffered store holds back. */
    void unblockLoads();
    void maybeFireDrainNotice();

    NodeId node;
    EventQueue &eq;
    Network &net;
    AddrMap &mem;
    const MachineConfig &cfg;
    SpecCacheIface *spec = nullptr;

    NodeCache cache;

    std::deque<WbEntry> wb;
    bool storeTxnActive = false;
    Addr storeTxnLine = invalidAddr;
    uint64_t storeTxnSeq = 0;
    int storeAttempts = 0;
    EventId storeWatchdog = invalidEventId;
    bool drainScheduled = false;

    /** Per-node transaction sequence numbers (never reused). */
    uint64_t seqCounter = 1;
    /** Duplicates/strays tolerated instead of asserted. */
    bool lenient = false;
    LostHook lostHook;

    std::optional<LoadTxn> loadTxn;
    std::vector<BlockedLoad> blockedLoads;

    std::unordered_map<Addr, std::deque<WbBufEntry>> wbBuf;
    std::unordered_map<Addr, std::vector<Msg>> parkedFwds;

    Notice slotFreeNotice;
    std::vector<Notice> drainNotices;

  public:
    Scalar l1Hits;
    Scalar l2Hits;
    Scalar misses;
    Scalar storeHits;
    Scalar storeMisses;
    Scalar writebacks;
    Scalar wbFullStalls;
    Scalar watchdogFires;
    Scalar msgsRetried;
    Scalar strayMsgs;
    Scalar disownedGrants;
    Scalar txnsLost;
};

} // namespace specrt

#endif // SPECRT_MEM_CACHE_CTRL_HH
