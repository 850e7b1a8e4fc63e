#include "mem/cache_ctrl.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/stall.hh"
#include "sim/trace.hh"

namespace specrt
{

namespace
{

/** Record one cache event (fill/evict/inval) for the trace ring. */
void
traceCache(trace::TraceOp op, Tick tick, NodeId node, Addr line,
           const char *label, uint8_t sub = 0)
{
    trace::TraceRecord r;
    r.tick = tick;
    r.op = op;
    r.sub = sub;
    r.node = node;
    r.addr = line;
    r.label = label;
    trace::buffer().emit(r);
}

} // namespace

CacheCtrl::CacheCtrl(NodeId node_, EventQueue &eq_, Network &net_,
                     AddrMap &mem_, const MachineConfig &config)
    : StatGroup("cache" + std::to_string(node_)),
      node(node_), eq(eq_), net(net_), mem(mem_), cfg(config),
      cache(config),
      l1Hits(this, "l1_hits", "loads hitting in L1"),
      l2Hits(this, "l2_hits", "loads hitting in L2"),
      misses(this, "misses", "loads missing both levels"),
      storeHits(this, "store_hits", "stores hitting a dirty line"),
      storeMisses(this, "store_misses", "stores needing a transaction"),
      writebacks(this, "writebacks", "dirty lines written back"),
      wbFullStalls(this, "wb_full_stalls", "stores rejected: buffer full"),
      watchdogFires(this, "watchdog_fires",
                    "transaction watchdog expirations"),
      msgsRetried(this, "msgs_retried", "requests re-sent by watchdog"),
      strayMsgs(this, "stray_msgs", "duplicate/stale replies ignored"),
      disownedGrants(this, "disowned_grants",
                     "unwanted ownership grants written back"),
      txnsLost(this, "txns_lost", "transactions lost after all retries")
{
    lenient = cfg.fault.lenientProtocol();
}

bool
CacheCtrl::wbHasLine(Addr line) const
{
    for (const WbEntry &e : wb) {
        if (lineOf(e.addr) == line)
            return true;
    }
    return false;
}

void
CacheCtrl::load(Addr addr, uint32_t size, IterNum iter, LoadDone done)
{
    SPECRT_ASSERT(!loadTxn, "second outstanding load at node %d", node);
    Addr line = lineOf(addr);

    // A load may not bypass a buffered store to the same line.
    if (wbHasLine(line) || (storeTxnActive && storeTxnLine == line)) {
        blockedLoads.push_back({addr, size, iter, std::move(done)});
        return;
    }

    // One L2 lookup serves both hit levels (findLine dominates the
    // hit path otherwise: l1Hit, the spec probe, and readWord each
    // redid it).
    if (const L2Set *cl = cache.findLine(addr)) {
        bool inL1 = cache.l1TagHit(addr);
        if (inL1) {
            ++l1Hits;
        } else {
            ++l2Hits;
            cache.l1Fill(addr);
        }
        if (spec)
            spec->onLoadHit(addr, cl->state, iter);
        uint64_t value = NodeCache::readWordIn(*cl, addr, size);
        Cycles lat = inL1 ? cfg.lat.l1Hit
                          : cfg.lat.l1Hit + cfg.lat.l2Access;
        eq.scheduleIn(lat, [done = std::move(done), value]() mutable {
            done(value);
        });
        return;
    }

    ++misses;
    loadTxn = LoadTxn{line, addr, size, iter, std::move(done), false,
                      seqCounter++, 0, invalidEventId};
    if (stall::Engine *e = stall::active())
        e->loadBegin(node, loadTxn->seq, line, addr, iter, homeOf(addr),
                     eq.curTick());
    sendLoadReq(cfg.lat.l1Hit + cfg.lat.l2Access);
    loadTxn->watchdog = armWatchdog(true, loadTxn->seq, 0);
}

void
CacheCtrl::sendLoadReq(Cycles extra_delay)
{
    Msg req;
    req.type = MsgType::ReadReq;
    req.src = node;
    req.dst = homeOf(loadTxn->elem);
    req.lineAddr = loadTxn->line;
    req.elemAddr = loadTxn->elem;
    req.iter = loadTxn->iter;
    req.txnSeq = loadTxn->seq;
    net.send(req, extra_delay);
}

bool
CacheCtrl::store(Addr addr, uint32_t size, uint64_t value, IterNum iter)
{
    if (wb.size() >= static_cast<size_t>(cfg.writeBufferEntries)) {
        ++wbFullStalls;
        return false;
    }
    wb.push_back({addr, size, value, iter});
    scheduleDrain();
    return true;
}

void
CacheCtrl::requestDrainNotice(Notice n)
{
    if (wb.empty() && !storeTxnActive) {
        n();
        return;
    }
    drainNotices.push_back(std::move(n));
}

void
CacheCtrl::scheduleDrain()
{
    if (drainScheduled || storeTxnActive || wb.empty())
        return;
    drainScheduled = true;
    eq.scheduleIn(1, [this]() {
        drainScheduled = false;
        drainHead();
    });
}

void
CacheCtrl::drainHead()
{
    if (storeTxnActive || wb.empty())
        return;
    const WbEntry &head = wb.front();
    Addr line = lineOf(head.addr);

    // Do not start a store transaction while a load transaction is
    // outstanding on the same line (reply ordering across different
    // senders is not guaranteed).
    if (loadTxn && loadTxn->line == line)
        return; // re-poked when the load completes

    L2Set *cl = cache.findLine(head.addr);
    if (cl && cl->state == LineState::Dirty) {
        ++storeHits;
        NodeCache::writeWordIn(*cl, head.addr, head.size, head.value);
        cache.l1Fill(head.addr);
        if (spec)
            spec->onStoreDirtyHit(head.addr, head.iter);
        popHead();
        scheduleDrain();
        return;
    }

    ++storeMisses;
    storeTxnActive = true;
    storeTxnLine = line;
    storeTxnSeq = seqCounter++;
    storeAttempts = 0;
    sendStoreReq(cfg.lat.l1Hit + cfg.lat.l2Access);
    storeWatchdog = armWatchdog(false, storeTxnSeq, 0);
}

void
CacheCtrl::sendStoreReq(Cycles extra_delay)
{
    const WbEntry &head = wb.front();
    Msg req;
    req.type = MsgType::WriteReq;
    req.src = node;
    req.dst = homeOf(head.addr);
    req.lineAddr = storeTxnLine;
    req.elemAddr = head.addr;
    req.iter = head.iter;
    req.isUpgrade = cache.findLine(head.addr) != nullptr;
    req.txnSeq = storeTxnSeq;
    net.send(req, extra_delay);
}

EventId
CacheCtrl::armWatchdog(bool is_load, uint64_t seq, int attempt)
{
    if (cfg.fault.watchdogTimeout == 0)
        return invalidEventId;
    // Exponential backoff: each retry waits twice as long.
    Cycles timeout = cfg.fault.watchdogTimeout
                     << std::min(attempt, 16);
    return eq.scheduleIn(timeout, [this, is_load, seq]() {
        onWatchdog(is_load, seq);
    });
}

void
CacheCtrl::onWatchdog(bool is_load, uint64_t seq)
{
    // Stale timer: the transaction it guarded already completed.
    if (is_load && (!loadTxn || loadTxn->seq != seq))
        return;
    if (!is_load && (!storeTxnActive || storeTxnSeq != seq))
        return;

    ++watchdogFires;
    int attempts = is_load ? loadTxn->attempts : storeAttempts;
    if (is_load) {
        // The whole expired backoff window was spent waiting on a
        // lost or late message; credit it to the outstanding load.
        // (loadWait() clamps the credit if a reply overlapped it.)
        Cycles window = cfg.fault.watchdogTimeout
                        << std::min(attempts, 16);
        if (stall::Engine *e = stall::active())
            e->retryWindow(node, seq, static_cast<double>(window));
    }
    if (attempts >= cfg.fault.watchdogMaxRetries) {
        txnLost(is_load ? loadTxn->elem : wb.front().addr,
                is_load ? "load transaction" : "store transaction");
        return;
    }

    // Retry with the SAME sequence number: whichever of the original
    // or the retry draws a reply first completes the transaction, and
    // the directory ignores the loser as a duplicate.
    ++msgsRetried;
    if (is_load) {
        ++loadTxn->attempts;
        sendLoadReq(0);
        loadTxn->watchdog = armWatchdog(true, seq, loadTxn->attempts);
    } else {
        ++storeAttempts;
        sendStoreReq(0);
        storeWatchdog = armWatchdog(false, seq, storeAttempts);
    }
}

void
CacheCtrl::txnLost(Addr elem, const char *what)
{
    ++txnsLost;
    if (lostHook) {
        lostHook(node, elem, what);
        return;
    }
    panic("node %d: %s for %#llx exhausted its watchdog retries and "
          "no degradation hook is installed",
          node, what, (unsigned long long)elem);
}

void
CacheCtrl::popHead()
{
    wb.pop_front();
    if (slotFreeNotice)
        slotFreeNotice();
    maybeFireDrainNotice();
    unblockLoads();
}

void
CacheCtrl::maybeFireDrainNotice()
{
    if (!wb.empty() || storeTxnActive || drainNotices.empty())
        return;
    std::vector<Notice> notices = std::move(drainNotices);
    drainNotices.clear();
    for (Notice &n : notices)
        n();
}

void
CacheCtrl::handle(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::ReadReply:    onReadReply(msg); return;
      case MsgType::WriteReply:   onWriteReply(msg); return;
      case MsgType::Inval:        onInval(msg); return;
      case MsgType::ReadFwd:
      case MsgType::WriteFwd:     onFwd(msg); return;
      case MsgType::WritebackAck: onWritebackAck(msg); return;
      case MsgType::FirstUpdateFail:
        SPECRT_ASSERT(spec, "FirstUpdateFail with no spec unit");
        spec->onMsg(msg);
        return;
      default:
        panic("cache %d got unexpected %s", node,
              msgTypeName(msg.type));
    }
}

void
CacheCtrl::fillLine(const Msg &reply, LineState state, bool is_write)
{
    cache.fill(reply.lineAddr, state, reply.data.data(),
               [this](const L2Set &victim) {
        if (victim.state == LineState::Dirty) {
            evictDirty(victim);
            return;
        }
        if (trace::enabled())
            traceCache(trace::TraceOp::CacheInval, eq.curTick(), node,
                       victim.addr, "displaced");
        if (spec)
            spec->onInval(victim.addr);
    });
    if (trace::enabled())
        traceCache(trace::TraceOp::CacheFill, eq.curTick(), node,
                   reply.lineAddr, lineStateName(state),
                   static_cast<uint8_t>(state));
    if (spec)
        spec->onFill(reply.lineAddr, reply.specBits, reply.elemAddr,
                     is_write, reply.iter);
}

void
CacheCtrl::evictDirty(const L2Set &victim)
{
    ++writebacks;
    if (trace::enabled())
        traceCache(trace::TraceOp::CacheEvict, eq.curTick(), node,
                   victim.addr, "writeback");
    MsgBits bits;
    if (spec) {
        bits = spec->onDirtyOut(victim.addr);
        spec->onInval(victim.addr);
    }
    WbBufEntry buffered;
    buffered.data.assign(victim.data, cache.lineBytes());
    buffered.bits = bits;
    wbBuf[victim.addr].push_back(std::move(buffered));

    Msg wbm;
    wbm.type = MsgType::Writeback;
    wbm.src = node;
    wbm.dst = homeOf(victim.addr);
    wbm.lineAddr = victim.addr;
    wbm.data.assign(victim.data, cache.lineBytes());
    wbm.specBits = std::move(bits);
    net.send(wbm);
}

void
CacheCtrl::onReadReply(const Msg &msg)
{
    if (!loadTxn || loadTxn->line != msg.lineAddr ||
        msg.txnSeq != loadTxn->seq) {
        // Duplicate or superseded reply; shared data is never unique,
        // so dropping it is safe.
        SPECRT_ASSERT(lenient, "stray ReadReply at node %d", node);
        ++strayMsgs;
        return;
    }
    eq.deschedule(loadTxn->watchdog);
    LoadTxn txn = std::move(*loadTxn);
    loadTxn.reset();

    fillLine(msg, LineState::Shared, false);
    uint64_t value = cache.readWord(txn.elem, txn.size);
    if (txn.invalPending) {
        if (spec)
            spec->onInval(msg.lineAddr);
        cache.invalidate(msg.lineAddr);
    }

    // A store to this line may have been waiting for the load.
    scheduleDrain();
    unblockLoads();
    txn.done(value);
}

void
CacheCtrl::onWriteReply(const Msg &msg)
{
    if (!storeTxnActive || storeTxnLine != msg.lineAddr ||
        msg.txnSeq != storeTxnSeq) {
        SPECRT_ASSERT(lenient, "stray WriteReply at node %d", node);
        disownGrant(msg);
        return;
    }
    SPECRT_ASSERT(!wb.empty(), "WriteReply with empty write buffer");
    eq.deschedule(storeWatchdog);
    storeWatchdog = invalidEventId;

    fillLine(msg, LineState::Dirty, true);

    const WbEntry &head = wb.front();
    SPECRT_ASSERT(lineOf(head.addr) == msg.lineAddr, "WB head mismatch");
    cache.writeWord(head.addr, head.size, head.value);
    cache.l1Fill(head.addr);

    storeTxnActive = false;
    storeTxnLine = invalidAddr;
    popHead();

    // Serve any forwards that raced ahead of this grant.
    auto it = parkedFwds.find(msg.lineAddr);
    if (it != parkedFwds.end()) {
        std::vector<Msg> fwds = std::move(it->second);
        parkedFwds.erase(it);
        for (const Msg &f : fwds)
            serveFwd(f);
    }

    scheduleDrain();
    unblockLoads();
}

void
CacheCtrl::disownGrant(const Msg &msg)
{
    ++strayMsgs;
    if (cache.findLine(msg.lineAddr)) {
        // The line is (still or again) cached here: the duplicate
        // grant carries nothing we need.
        return;
    }
    // Ownership was transferred here with data that may exist nowhere
    // else (the old owner invalidated itself serving a retried
    // forward). Write it straight back; the home either commits it
    // (it still thinks we own the line) or supersedes the writeback.
    ++disownedGrants;
    ++writebacks;
    wbBuf[msg.lineAddr].push_back({msg.data, {}});

    Msg wbm;
    wbm.type = MsgType::Writeback;
    wbm.src = node;
    wbm.dst = homeOf(msg.lineAddr);
    wbm.lineAddr = msg.lineAddr;
    wbm.data = msg.data;
    net.send(wbm);

    // Forwards that raced ahead of the unwanted grant can now be
    // served out of the writeback buffer.
    auto it = parkedFwds.find(msg.lineAddr);
    if (it != parkedFwds.end()) {
        std::vector<Msg> fwds = std::move(it->second);
        parkedFwds.erase(it);
        for (const Msg &f : fwds)
            serveFwd(f);
    }
}

void
CacheCtrl::onInval(const Msg &msg)
{
    if (loadTxn && loadTxn->line == msg.lineAddr)
        loadTxn->invalPending = true;

    const L2Set *cl = cache.findLine(msg.lineAddr);
    if (lenient && cl && cl->state == LineState::Dirty) {
        // A stale duplicate Inval: the directory never invalidates an
        // owner, so this Inval predates our ownership. Ack it without
        // touching the dirty line (the directory dedups acks).
        ++strayMsgs;
        cl = nullptr;
    }
    if (cl) {
        if (trace::enabled())
            traceCache(trace::TraceOp::CacheInval, eq.curTick(), node,
                       msg.lineAddr, "inval");
        if (spec)
            spec->onInval(msg.lineAddr);
        cache.invalidate(msg.lineAddr);
    }

    Msg ack;
    ack.type = MsgType::InvalAck;
    ack.src = node;
    ack.dst = msg.src;
    ack.lineAddr = msg.lineAddr;
    net.send(ack, cfg.lat.invalCycles);
}

void
CacheCtrl::onFwd(const Msg &msg)
{
    const L2Set *cl = cache.findLine(msg.lineAddr);
    bool have_dirty = cl && cl->state == LineState::Dirty;
    bool in_wb_buf = wbBuf.count(msg.lineAddr) > 0;

    if (!have_dirty && !in_wb_buf) {
        // Our ownership grant (WriteReply from the old owner) is
        // still in flight; park the forward until it lands. Under
        // fault injection the grant may be one we never asked for
        // (watchdog-retry race) -- disownGrant() then serves the
        // parked forward from the writeback buffer.
        SPECRT_ASSERT(lenient ||
                      (storeTxnActive && storeTxnLine == msg.lineAddr),
                      "fwd %s for unowned line %#llx at node %d",
                      msgTypeName(msg.type),
                      (unsigned long long)msg.lineAddr, node);
        parkedFwds[msg.lineAddr].push_back(msg);
        return;
    }
    serveFwd(msg);
}

void
CacheCtrl::serveFwd(const Msg &msg)
{
    L2Set *cl = cache.findLine(msg.lineAddr);
    bool read = msg.type == MsgType::ReadFwd;

    MsgData data;
    MsgBits bits;
    bool retains = false;

    if (cl && cl->state == LineState::Dirty) {
        data.assign(cl->data, cache.lineBytes());
        if (spec)
            bits = spec->combineBits(msg.lineAddr,
                                     spec->onDirtyOut(msg.lineAddr),
                                     msg.specBits);
        if (read) {
            cl->state = LineState::Shared;
            retains = true;
        } else {
            if (spec)
                spec->onInval(msg.lineAddr);
            cache.invalidate(msg.lineAddr);
        }
    } else {
        auto it = wbBuf.find(msg.lineAddr);
        SPECRT_ASSERT(it != wbBuf.end() && !it->second.empty(),
                      "serveFwd without data at node %d", node);
        data = it->second.back().data;
        bits = spec ? spec->combineBits(msg.lineAddr,
                                        it->second.back().bits,
                                        msg.specBits)
                    : it->second.back().bits;
        retains = false;
    }

    Msg reply;
    reply.type = read ? MsgType::ReadReply : MsgType::WriteReply;
    reply.src = node;
    reply.dst = msg.requester;
    reply.lineAddr = msg.lineAddr;
    reply.elemAddr = msg.elemAddr;
    reply.iter = msg.iter;
    reply.txnSeq = msg.txnSeq;
    reply.data = data;
    reply.specBits = bits;
    net.send(reply, cfg.lat.ownerAccess);

    Msg home;
    home.type = read ? MsgType::ShareWb : MsgType::OwnXfer;
    home.src = node;
    home.dst = msg.src;
    home.lineAddr = msg.lineAddr;
    home.elemAddr = msg.elemAddr;
    home.iter = msg.iter;
    home.data = std::move(data);
    home.specBits = std::move(bits);
    home.ownerRetains = retains;
    net.send(home, cfg.lat.ownerAccess);
}

void
CacheCtrl::onWritebackAck(const Msg &msg)
{
    auto it = wbBuf.find(msg.lineAddr);
    SPECRT_ASSERT(it != wbBuf.end() && !it->second.empty(),
                  "WritebackAck without buffer entry at node %d", node);
    it->second.pop_front();
    if (it->second.empty())
        wbBuf.erase(it);
}

void
CacheCtrl::unblockLoads()
{
    if (blockedLoads.empty())
        return;
    std::vector<BlockedLoad> still_blocked;
    std::vector<BlockedLoad> ready;
    for (BlockedLoad &bl : blockedLoads) {
        Addr line = lineOf(bl.addr);
        bool blocked = wbHasLine(line) ||
                       (storeTxnActive && storeTxnLine == line);
        (blocked ? still_blocked : ready).push_back(std::move(bl));
    }
    blockedLoads = std::move(still_blocked);
    for (BlockedLoad &bl : ready)
        load(bl.addr, bl.size, bl.iter, std::move(bl.done));
}

bool
CacheCtrl::quiescent() const
{
    return !loadTxn && wb.empty() && !storeTxnActive && wbBuf.empty() &&
           parkedFwds.empty() && blockedLoads.empty();
}

bool
CacheCtrl::lineBusy(Addr line) const
{
    if (loadTxn && loadTxn->line == line)
        return true;
    if (storeTxnActive && storeTxnLine == line)
        return true;
    if (wbBuf.count(line) || parkedFwds.count(line))
        return true;
    for (const WbEntry &e : wb) {
        if (lineOf(e.addr) == line)
            return true;
    }
    for (const BlockedLoad &bl : blockedLoads) {
        if (lineOf(bl.addr) == line)
            return true;
    }
    return false;
}

void
CacheCtrl::reset(bool commit_dirty)
{
    // A committing reset requires a quiescent machine; an aborting
    // reset (failed speculation) forcibly drops in-flight state.
    SPECRT_ASSERT(!commit_dirty || quiescent(),
                  "committing reset of non-quiescent cache ctrl at "
                  "node %d", node);
    cache.flushAll([&](const L2Set &line) {
        if (commit_dirty)
            mem.writeLine(line.addr, line.data, cache.lineBytes());
    });
    if (commit_dirty) {
        // Writeback-buffer data is also committed: an entry can
        // outlive its WritebackAck only transiently.
        for (auto &[line, entries] : wbBuf) {
            for (const WbBufEntry &e : entries)
                mem.writeLine(line, e.data.data(),
                              static_cast<uint32_t>(e.data.size()));
        }
    }
    wb.clear();
    loadTxn.reset();
    storeTxnActive = false;
    storeTxnLine = invalidAddr;
    // Watchdog timers are owned by the event queue, which the system
    // reset has already cleared; only drop the stale handles here (a
    // stale timer that did survive no-ops on the seq mismatch).
    storeTxnSeq = 0;
    storeAttempts = 0;
    storeWatchdog = invalidEventId;
    wbBuf.clear();
    parkedFwds.clear();
    blockedLoads.clear();
    drainNotices.clear();
    drainScheduled = false;
}

} // namespace specrt
