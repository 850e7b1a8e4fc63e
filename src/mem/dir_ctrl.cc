#include "mem/dir_ctrl.hh"

#include "sim/logging.hh"
#include "sim/stall.hh"
#include "sim/timeline.hh"
#include "sim/trace.hh"

namespace specrt
{

namespace
{

/** Record a directory-entry state change (old -> new). */
void
traceDirState(Tick tick, NodeId home, Addr line, DirState from,
              DirState to)
{
    if (from == to)
        return;
    trace::TraceRecord r;
    r.tick = tick;
    r.op = trace::TraceOp::DirState;
    r.node = home;
    r.addr = line;
    r.a = static_cast<uint64_t>(from);
    r.b = static_cast<uint64_t>(to);
    r.label = dirStateName(to);
    trace::buffer().emit(r);
}

/** Contention heatmap key: the element when known, else the line. */
Addr
heatElem(const Msg &msg)
{
    return msg.elemAddr != invalidAddr ? msg.elemAddr : msg.lineAddr;
}

} // namespace

DirCtrl::DirCtrl(NodeId node_, EventQueue &eq_, Network &net_,
                 AddrMap &mem_, const MachineConfig &config)
    : StatGroup("dir" + std::to_string(node_)),
      node(node_), eq(eq_), net(net_), mem(mem_), cfg(config),
      dir(config.l2.lineBytes, config.pageBytes),
      txns(this, "txns", "transactions processed"),
      fwds(this, "fwds", "owner forwards sent"),
      invalsSent(this, "invals", "invalidations sent"),
      queuedCycles(this, "queued_cycles", "cycles requests sat queued"),
      dupRequests(this, "dup_requests",
                  "duplicate/retried requests ignored as already served"),
      strayMsgs(this, "stray_msgs", "stray protocol legs tolerated")
{
    lenient = cfg.fault.lenientProtocol();
}

bool
DirCtrl::startsTxn(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq:
      case MsgType::WriteReq:
      case MsgType::Writeback:
      case MsgType::FirstUpdate:
      case MsgType::ROnlyUpdate:
      case MsgType::ReadFirstSig:
      case MsgType::FirstWriteSig:
      case MsgType::ReadInReq:
      case MsgType::CopyOutSig:
        return true;
      default:
        return false;
    }
}

void
DirCtrl::handle(const Msg &msg)
{
    switch (msg.type) {
      case MsgType::ShareWb:
        onShareWb(msg);
        return;
      case MsgType::OwnXfer:
        onOwnXfer(msg);
        return;
      case MsgType::InvalAck:
        onInvalAck(msg);
        return;
      case MsgType::ReadInReply:
        // Nested leg of a deferred transaction; entirely the spec
        // unit's business (it will call resumeDeferred()).
        SPECRT_ASSERT(spec, "ReadInReply with no spec unit");
        spec->onMsg(msg);
        return;
      default:
        break;
    }
    SPECRT_ASSERT(startsTxn(msg.type), "dir %d got unexpected %s",
                  node, msgTypeName(msg.type));
    enqueue(msg);
}

DirCtrl::Txn *
DirCtrl::findActive(Addr line)
{
    for (Txn &t : active) {
        if (t.line == line)
            return &t;
    }
    return nullptr;
}

const DirCtrl::Txn *
DirCtrl::findActive(Addr line) const
{
    for (const Txn &t : active) {
        if (t.line == line)
            return &t;
    }
    return nullptr;
}

void
DirCtrl::enqueue(const Msg &msg)
{
    // A request arriving while its line has an active transaction is
    // exactly the home-node serialization the paper worries about --
    // that is the contention the heatmap's "queued" axis counts.
    if (findActive(msg.lineAddr)) {
        timeline::dirQueued(node, heatElem(msg));
        waiting.push_back(msg);
        waitingSince.push_back(eq.curTick());
        return;
    }
    beginTxn(msg, eq.curTick());
}

void
DirCtrl::beginTxn(const Msg &msg, Tick enq_tick)
{
    Addr line = msg.lineAddr;
    active.push_back(Txn{line, msg, 0, false, false});

    Tick start = claimController();
    queuedCycles += static_cast<double>(start - eq.curTick());
    // Everything between arrival at this home and processing start is
    // home-node serialization: line-queue wait + controller occupancy.
    stall::dirWait(msg.src, msg.txnSeq,
                   static_cast<double>(start - enq_tick));
    // Capture only the line: the request lives in the active set, so
    // the callback stays within SmallFunction's inline buffer.
    eq.schedule(start, [this, line]() { runTxn(line); });
}

void
DirCtrl::tryStart(Addr line)
{
    if (findActive(line))
        return;
    for (size_t i = 0; i < waiting.size(); ++i) {
        if (waiting[i].lineAddr != line)
            continue;
        Msg req = std::move(waiting[i]);
        Tick since = waitingSince[i];
        waiting.erase(waiting.begin() +
                      static_cast<ptrdiff_t>(i));
        waitingSince.erase(waitingSince.begin() +
                           static_cast<ptrdiff_t>(i));
        beginTxn(req, since);
        return;
    }
}

void
DirCtrl::runTxn(Addr line)
{
    Txn *t = findActive(line);
    SPECRT_ASSERT(t, "runTxn with no active transaction for %#llx",
                  (unsigned long long)line);
    // Stack copy: process() may finish the transaction (erasing the
    // active slot) or start new ones (moving the vector).
    Msg req = t->req;
    process(req);
}

Tick
DirCtrl::claimController()
{
    Tick start = std::max(eq.curTick(), nextFree);
    nextFree = start + cfg.lat.dirOccupancy;
    return start;
}

void
DirCtrl::process(const Msg &msg)
{
    timeline::dirAccess(node, heatElem(msg));
    switch (msg.type) {
      case MsgType::ReadReq:
      case MsgType::WriteReq: {
        DirEntry &e = dir.entry(msg.lineAddr);
        if (e.state == DirState::Dirty) {
            if (e.owner == msg.src) {
                // Duplicate or watchdog-retried request from the node
                // we already granted to. The grant is provably still
                // in flight (replies are never dropped), so ignoring
                // the duplicate is safe: the requester will accept
                // the original reply under the same sequence number.
                SPECRT_ASSERT(lenient,
                              "requester %d already owns line %#llx",
                              msg.src, (unsigned long long)msg.lineAddr);
                ++dupRequests;
                finishTxn(msg.lineAddr);
                return;
            }
            // Forward to the owner; spec check runs when the owner's
            // bits come home (merge-then-test, as in Fig. 6(b)/(d)).
            findActive(msg.lineAddr)->awaitingOwner = true;
            Msg fwd;
            fwd.type = msg.type == MsgType::ReadReq ? MsgType::ReadFwd
                                                    : MsgType::WriteFwd;
            fwd.src = node;
            fwd.dst = e.owner;
            fwd.lineAddr = msg.lineAddr;
            fwd.elemAddr = msg.elemAddr;
            fwd.requester = msg.src;
            fwd.iter = msg.iter;
            fwd.txnSeq = msg.txnSeq;
            if (spec) {
                // Attach the home's authoritative access bits; the
                // owner combines them with its tags so the requester
                // receives exact, identity-carrying bits.
                fwd.specBits =
                    spec->collectFillBits(msg.src, msg.lineAddr,
                                          msg.iter);
            }
            ++fwds;
            net.send(std::move(fwd), cfg.lat.dirLookup);
            return;
        }
        if (spec) {
            SpecDirAction action = msg.type == MsgType::ReadReq
                                       ? spec->onReadReq(msg)
                                       : spec->onWriteReq(msg);
            if (action == SpecDirAction::Defer) {
                findActive(msg.lineAddr)->deferred = true;
                return;
            }
        }
        processBase(msg);
        return;
      }
      case MsgType::Writeback:
        processWriteback(msg);
        return;
      default:
        processSpecMsg(msg);
        return;
    }
}

void
DirCtrl::processBase(const Msg &req)
{
    Addr line = req.lineAddr;
    DirEntry &e = dir.entry(line);

    if (req.type == MsgType::ReadReq) {
        SPECRT_ASSERT(e.state != DirState::Dirty,
                      "processBase(read) on Dirty line");
        if (trace::enabled())
            traceDirState(eq.curTick(), node, line, e.state,
                          DirState::Shared);
        e.state = DirState::Shared;
        e.addSharer(req.src);
        e.owner = invalidNode;
        replyFromMemory(req, false, cfg.lat.dirMemAccess);
        eq.scheduleIn(cfg.lat.dirMemAccess,
                      [this, line]() { finishTxn(line); });
        return;
    }

    SPECRT_ASSERT(req.type == MsgType::WriteReq, "processBase type");
    uint64_t others = e.state == DirState::Shared
                          ? (e.sharers & ~(uint64_t(1) << req.src))
                          : 0;
    if (others) {
        findActive(line)->ackWait = others;
        for (NodeId n = 0; others; ++n, others >>= 1) {
            if (!(others & 1))
                continue;
            Msg inv;
            inv.type = MsgType::Inval;
            inv.src = node;
            inv.dst = n;
            inv.lineAddr = line;
            ++invalsSent;
            net.send(std::move(inv), cfg.lat.dirLookup);
        }
        return; // grant when the last InvalAck arrives
    }

    if (trace::enabled())
        traceDirState(eq.curTick(), node, line, e.state,
                      DirState::Dirty);
    e.state = DirState::Dirty;
    e.owner = req.src;
    e.sharers = 0;
    replyFromMemory(req, true, cfg.lat.dirMemAccess);
    eq.scheduleIn(cfg.lat.dirMemAccess,
                  [this, line]() { finishTxn(line); });
}

void
DirCtrl::processWriteback(const Msg &msg)
{
    Addr line = msg.lineAddr;
    DirEntry &e = dir.entry(line);
    if (e.state == DirState::Dirty && e.owner == msg.src) {
        SPECRT_ASSERT(msg.data.size() == mem.find(line)->elemBytes ||
                      !msg.data.empty(),
                      "writeback without data");
        mem.writeLine(line, msg.data.data(),
                      static_cast<uint32_t>(msg.data.size()));
        if (spec && !msg.specBits.empty())
            spec->onDirtyBits(msg.src, line, msg.specBits);
        if (trace::enabled())
            traceDirState(eq.curTick(), node, line, e.state,
                          DirState::Uncached);
        e.state = DirState::Uncached;
        e.owner = invalidNode;
        e.sharers = 0;
    }
    // Else: superseded -- a forward already extracted this line from
    // the sender's writeback buffer; just acknowledge.
    Msg ack;
    ack.type = MsgType::WritebackAck;
    ack.src = node;
    ack.dst = msg.src;
    ack.lineAddr = line;
    net.send(std::move(ack), cfg.lat.dirLookup);
    eq.scheduleIn(cfg.lat.dirLookup, [this, line]() { finishTxn(line); });
}

void
DirCtrl::processSpecMsg(const Msg &msg)
{
    SPECRT_ASSERT(spec, "spec message %s with no spec unit at node %d",
                  msgTypeName(msg.type), node);
    spec->onMsg(msg);
    Cycles busy = (msg.type == MsgType::ReadInReq ||
                   msg.type == MsgType::CopyOutSig)
                      ? cfg.lat.dirMemAccess
                      : cfg.lat.dirLookup;
    Addr line = msg.lineAddr;
    eq.scheduleIn(busy, [this, line]() { finishTxn(line); });
}

void
DirCtrl::onShareWb(const Msg &msg)
{
    Txn *t = findActive(msg.lineAddr);
    SPECRT_ASSERT(t && t->awaitingOwner, "stray ShareWb for %#llx",
                  (unsigned long long)msg.lineAddr);
    Txn &txn = *t;
    SPECRT_ASSERT(txn.req.type == MsgType::ReadReq, "ShareWb txn type");

    mem.writeLine(msg.lineAddr, msg.data.data(),
                  static_cast<uint32_t>(msg.data.size()));
    if (spec) {
        if (!msg.specBits.empty())
            spec->onDirtyBits(msg.src, msg.lineAddr, msg.specBits);
        SpecDirAction action = spec->onReadReq(txn.req);
        SPECRT_ASSERT(action == SpecDirAction::Proceed,
                      "spec deferred in owner leg");
    }

    DirEntry &e = dir.entry(msg.lineAddr);
    if (trace::enabled())
        traceDirState(eq.curTick(), node, msg.lineAddr, e.state,
                      DirState::Shared);
    e.state = DirState::Shared;
    e.sharers = uint64_t(1) << txn.req.src;
    if (msg.ownerRetains)
        e.addSharer(msg.src);
    e.owner = invalidNode;
    finishTxn(msg.lineAddr);
}

void
DirCtrl::onOwnXfer(const Msg &msg)
{
    Txn *t = findActive(msg.lineAddr);
    SPECRT_ASSERT(t && t->awaitingOwner, "stray OwnXfer for %#llx",
                  (unsigned long long)msg.lineAddr);
    Txn &txn = *t;
    SPECRT_ASSERT(txn.req.type == MsgType::WriteReq, "OwnXfer txn type");

    if (spec) {
        if (!msg.specBits.empty())
            spec->onDirtyBits(msg.src, msg.lineAddr, msg.specBits);
        SpecDirAction action = spec->onWriteReq(txn.req);
        SPECRT_ASSERT(action == SpecDirAction::Proceed,
                      "spec deferred in owner leg");
    }

    DirEntry &e = dir.entry(msg.lineAddr);
    if (trace::enabled())
        traceDirState(eq.curTick(), node, msg.lineAddr, e.state,
                      DirState::Dirty);
    e.state = DirState::Dirty;
    e.owner = txn.req.src;
    e.sharers = 0;
    finishTxn(msg.lineAddr);
}

void
DirCtrl::onInvalAck(const Msg &msg)
{
    Txn *t = findActive(msg.lineAddr);
    uint64_t bit = uint64_t(1) << msg.src;
    if (!t || !(t->ackWait & bit)) {
        // Duplicate ack (the Inval or the ack itself was duplicated):
        // this node's bit is already clear. The mask dedups it.
        SPECRT_ASSERT(lenient, "stray InvalAck for %#llx",
                      (unsigned long long)msg.lineAddr);
        ++strayMsgs;
        return;
    }
    Txn &txn = *t;
    txn.ackWait &= ~bit;
    if (txn.ackWait)
        return;

    // All sharers gone: grant ownership. The memory read overlapped
    // with the invalidations, so the reply goes out immediately.
    DirEntry &e = dir.entry(msg.lineAddr);
    if (trace::enabled())
        traceDirState(eq.curTick(), node, msg.lineAddr, e.state,
                      DirState::Dirty);
    e.state = DirState::Dirty;
    e.owner = txn.req.src;
    e.sharers = 0;
    replyFromMemory(txn.req, true, 0);
    finishTxn(msg.lineAddr);
}

void
DirCtrl::replyFromMemory(const Msg &req, bool write, Cycles delay)
{
    const Region *r = mem.find(req.lineAddr);
    SPECRT_ASSERT(r, "reply for unmapped line");
    uint32_t line_bytes = cfg.l2.lineBytes;

    Msg reply;
    reply.type = write ? MsgType::WriteReply : MsgType::ReadReply;
    reply.src = node;
    reply.dst = req.src;
    reply.lineAddr = req.lineAddr;
    reply.elemAddr = req.elemAddr;
    reply.iter = req.iter;
    reply.txnSeq = req.txnSeq;
    reply.data.resize(line_bytes);
    mem.readLine(req.lineAddr, reply.data.data(), line_bytes);
    if (spec)
        reply.specBits =
            spec->collectFillBits(req.src, req.lineAddr, req.iter);
    net.send(std::move(reply), delay);
}

void
DirCtrl::resumeDeferred(Addr line_addr)
{
    Txn *t = findActive(line_addr);
    SPECRT_ASSERT(t && t->deferred,
                  "resumeDeferred with no deferred txn");
    t->deferred = false;
    // Stack copy: processBase may finish the transaction.
    Msg req = t->req;
    processBase(req);
}

void
DirCtrl::finishTxn(Addr line)
{
    Txn *t = findActive(line);
    SPECRT_ASSERT(t, "finishTxn with no txn");
    // Order is irrelevant (lookups are keyed): swap-with-back erase.
    if (t != &active.back())
        *t = std::move(active.back());
    active.pop_back();
    ++txns;
    tryStart(line);
}

void
DirCtrl::reset()
{
    active.clear();
    waiting.clear();
    waitingSince.clear();
    dir.clear();
    nextFree = 0;
}

} // namespace specrt
