#include "spec/spec_unit.hh"

#include "obs/event_log.hh"
#include "sim/critpath.hh"
#include "sim/logging.hh"
#include "sim/timeline.hh"

namespace specrt
{

// --------------------------------------------------------------------
// SpecCacheUnit
// --------------------------------------------------------------------

SpecCacheUnit::SpecCacheUnit(SpecSystem &sys_, NodeId node_)
    : sys(sys_), node(node_)
{
}

void
SpecCacheUnit::dropLine(uint32_t first, uint32_t elems)
{
    npTags.eraseSlice(first, elems);
    privTags.eraseSlice(first, elems);
}

void
SpecCacheUnit::onLoadHit(Addr addr, LineState state, IterNum iter)
{
    if (!sys.armed())
        return;
    const TestRange *range = sys.table().lookup(addr);
    if (!range)
        return;

    Addr line = sys.lineOf(addr);
    uint32_t elems = sys.lineBytes() / range->elemBytes;
    uint32_t first = range->elemIndex(line);
    size_t idx = (addr - line) / range->elemBytes;
    trace::ScopedCtx tctx(sys.now(), node, addr, iter);

    if (range->type == TestType::NonPriv) {
        NPTagBits &bits = npTags.slice(first, elems)[idx];
        NPCacheResult res =
            npCacheRead(bits, state == LineState::Dirty);
        if (res.fail) {
            sys.fail(node, addr, res.reason);
            return;
        }
        if (res.sendFirstUpdate || res.sendROnlyUpdate) {
            Msg m;
            m.type = res.sendFirstUpdate ? MsgType::FirstUpdate
                                         : MsgType::ROnlyUpdate;
            m.src = node;
            m.dst = sys.mem().homeOf(addr);
            m.lineAddr = line;
            m.elemAddr = addr;
            if (res.sendFirstUpdate)
                ++sys.firstUpdates;
            else
                ++sys.rOnlyUpdates;
            sys.net().send(std::move(m));
        }
        return;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "processor read of privatization-tested shared "
                  "array %#llx during the loop",
                  (unsigned long long)addr);
    PrivTagBits &bits = privTags.slice(first, elems)[idx];
    PrivCacheResult res = privCacheRead(bits, iter);
    if (res.readFirst) {
        Msg m;
        m.type = MsgType::ReadFirstSig;
        m.src = node;
        m.dst = sys.mem().homeOf(addr); // the private directory
        m.lineAddr = line;
        m.elemAddr = addr;
        m.iter = iter;
        ++sys.readFirstSigs;
        sys.net().send(std::move(m));
    }
}

void
SpecCacheUnit::onStoreDirtyHit(Addr addr, IterNum iter)
{
    if (!sys.armed())
        return;
    const TestRange *range = sys.table().lookup(addr);
    if (!range)
        return;

    Addr line = sys.lineOf(addr);
    uint32_t elems = sys.lineBytes() / range->elemBytes;
    uint32_t first = range->elemIndex(line);
    size_t idx = (addr - line) / range->elemBytes;
    trace::ScopedCtx tctx(sys.now(), node, addr, iter);

    if (range->type == TestType::NonPriv) {
        NPTagBits &bits = npTags.slice(first, elems)[idx];
        NPCacheResult res = npCacheWriteDirty(bits);
        if (res.fail)
            sys.fail(node, addr, res.reason);
        return;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "processor write of privatization-tested shared "
                  "array %#llx during the loop",
                  (unsigned long long)addr);
    PrivTagBits &bits = privTags.slice(first, elems)[idx];
    PrivCacheResult res = privCacheWrite(bits, iter);
    if (res.firstWrite) {
        Msg m;
        m.type = MsgType::FirstWriteSig;
        m.src = node;
        m.dst = sys.mem().homeOf(addr); // the private directory
        m.lineAddr = line;
        m.elemAddr = addr;
        m.iter = iter;
        ++sys.firstWriteSigs;
        sys.net().send(std::move(m));
    }
}

void
SpecCacheUnit::onFill(Addr line_addr, const MsgBits &bits,
                      Addr elem_addr, bool is_write, IterNum iter)
{
    if (!sys.armed())
        return;
    const TestRange *range = sys.table().lookup(line_addr);
    if (!range)
        return;

    uint32_t elems = sys.lineBytes() / range->elemBytes;
    uint32_t first = range->elemIndex(line_addr);
    size_t idx = (elem_addr - line_addr) / range->elemBytes;
    trace::ScopedCtx tctx(sys.now(), node, elem_addr, iter);

    if (range->type == TestType::NonPriv) {
        SPECRT_ASSERT(bits.size() == elems,
                      "non-priv fill with %u bits, want %u",
                      bits.size(), elems);
        NPTagBits *tags = npTags.slice(first, elems);
        for (size_t i = 0; i < elems; ++i)
            tags[i] = npWireToTag(bits[i], node);
        NPCacheResult res = npCacheLocalApply(tags[idx], is_write);
        if (res.fail)
            sys.fail(node, elem_addr, res.reason);
        return;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "fill of privatization-tested shared line");
    SPECRT_ASSERT(bits.size() == elems,
                  "priv fill with %u bits, want %u", bits.size(),
                  elems);
    PrivTagBits *tags = privTags.slice(first, elems);
    for (size_t i = 0; i < elems; ++i)
        tags[i] = privWireToTag(bits[i], iter);
    // Apply the triggering access locally; the private directory
    // already accounted for it, so no signals here.
    PrivTagBits eff = privEffective(tags[idx], iter);
    if (is_write)
        eff.write = true;
    else if (!eff.write)
        eff.read1st = true;
    tags[idx] = eff;
}

MsgBits
SpecCacheUnit::onDirtyOut(Addr line_addr)
{
    if (!sys.armed())
        return {};
    const TestRange *range = sys.table().lookup(line_addr);
    if (!range || range->type != TestType::NonPriv)
        return {}; // priv state is kept current via signals

    uint32_t elems = sys.lineBytes() / range->elemBytes;
    uint32_t first = range->elemIndex(line_addr);
    NPTagBits *tags = npTags.slice(first, elems);
    MsgBits wire(elems);
    for (size_t i = 0; i < elems; ++i)
        wire[i] = npPackTag(tags[i], node);
    return wire;
}

MsgBits
SpecCacheUnit::combineBits(Addr line_addr, const MsgBits &owner_bits,
                           const MsgBits &home_bits)
{
    (void)line_addr;
    if (owner_bits.empty())
        return home_bits;
    if (home_bits.empty())
        return owner_bits;
    SPECRT_ASSERT(owner_bits.size() == home_bits.size(),
                  "combineBits size mismatch: %u vs %u",
                  owner_bits.size(), home_bits.size());
    MsgBits out(owner_bits.size());
    for (uint32_t i = 0; i < out.size(); ++i)
        out[i] = npCombineWire(owner_bits[i], home_bits[i]);
    return out;
}

void
SpecCacheUnit::onInval(Addr line_addr)
{
    const TestRange *range = sys.table().lookup(line_addr);
    if (!range)
        return;
    uint32_t elems = sys.lineBytes() / range->elemBytes;
    dropLine(range->elemIndex(line_addr), elems);
}

void
SpecCacheUnit::onMsg(const Msg &msg)
{
    if (!sys.armed())
        return;
    SPECRT_ASSERT(msg.type == MsgType::FirstUpdateFail,
                  "cache spec unit got %s", msgTypeName(msg.type));
    const TestRange *range = sys.table().lookup(msg.elemAddr);
    SPECRT_ASSERT(range, "FirstUpdateFail outside any test range");
    NPTagBits *tags = npTags.find(range->elemIndex(msg.lineAddr));
    if (!tags)
        return; // line (and its tags) gone; home state authoritative
    size_t idx = (msg.elemAddr - msg.lineAddr) / range->elemBytes;
    trace::ScopedCtx tctx(sys.now(), node, msg.elemAddr, msg.iter);
    NPCacheResult res = npCacheFirstUpdateFail(tags[idx]);
    if (res.fail)
        sys.fail(node, msg.elemAddr, res.reason);
}

void
SpecCacheUnit::clearAll()
{
    npTags.clear();
    privTags.clear();
}

// --------------------------------------------------------------------
// SpecDirUnit
// --------------------------------------------------------------------

SpecDirUnit::SpecDirUnit(SpecSystem &sys_, NodeId node_)
    : sys(sys_), node(node_)
{
}

bool
SpecDirUnit::lineUntouched(Addr line, const TestRange &range) const
{
    for (Addr a = line; a < line + sys.lineBytes();
         a += range.elemBytes) {
        if (!range.contains(a))
            continue;
        const PrivPrivDirBits *b = pp.find(range.elemIndex(a));
        if (b && !b->untouched())
            return false;
    }
    return true;
}

void
SpecDirUnit::sendReadFirstToShared(const TestRange &range,
                                   Addr priv_elem, IterNum iter)
{
    Addr shared_elem = range.toShared(priv_elem);
    Msg m;
    m.type = MsgType::ReadFirstSig;
    m.src = node;
    m.dst = sys.mem().homeOf(shared_elem);
    m.lineAddr = sys.lineOf(shared_elem);
    m.elemAddr = shared_elem;
    m.iter = iter;
    sys.net().send(std::move(m));
}

void
SpecDirUnit::sendFirstWriteToShared(const TestRange &range,
                                    Addr priv_elem, IterNum iter)
{
    Addr shared_elem = range.toShared(priv_elem);
    Msg m;
    m.type = MsgType::FirstWriteSig;
    m.src = node;
    m.dst = sys.mem().homeOf(shared_elem);
    m.lineAddr = sys.lineOf(shared_elem);
    m.elemAddr = shared_elem;
    m.iter = iter;
    sys.net().send(std::move(m));
}

void
SpecDirUnit::startReadIn(const Msg &req, const TestRange &range,
                         bool for_write)
{
    Addr priv_line = req.lineAddr;
    Addr shared_elem = range.toShared(req.elemAddr);
    Addr shared_line = sys.lineOf(shared_elem);
    for (const PendingReadIn &p : pendingReadIns) {
        SPECRT_ASSERT(p.sharedLine != shared_line,
                      "overlapping read-ins for shared line %#llx",
                      (unsigned long long)shared_line);
    }
    pendingReadIns.push_back({shared_line, priv_line, req.elemAddr});

    Msg m;
    m.type = MsgType::ReadInReq;
    m.src = node;
    m.dst = sys.mem().homeOf(shared_elem);
    m.lineAddr = shared_line;
    m.elemAddr = shared_elem;
    m.iter = req.iter;
    m.forWrite = for_write;
    ++sys.readIns;
    sys.net().send(std::move(m));
}

SpecDirAction
SpecDirUnit::onReadReq(const Msg &req)
{
    if (!sys.armed())
        return SpecDirAction::Proceed;
    const TestRange *range = sys.table().lookup(req.elemAddr);
    if (!range)
        return SpecDirAction::Proceed;
    trace::ScopedCtx tctx(sys.now(), req.src, req.elemAddr, req.iter);

    if (range->type == TestType::NonPriv) {
        NPDirResult res =
            npDirRead(np.at(range->elemIndex(req.elemAddr)), req.src);
        if (res.fail)
            sys.fail(req.src, req.elemAddr, res.reason);
        return SpecDirAction::Proceed;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "cached read of privatization-tested shared array");
    bool untouched = lineUntouched(req.lineAddr, *range);
    PrivPDirResult res =
        privPDirRead(pp.at(range->elemIndex(req.elemAddr)), req.iter,
                     untouched);
    if (res.needReadIn) {
        startReadIn(req, *range, false);
        return SpecDirAction::Defer;
    }
    if (res.readFirst)
        sendReadFirstToShared(*range, req.elemAddr, req.iter);
    return SpecDirAction::Proceed;
}

SpecDirAction
SpecDirUnit::onWriteReq(const Msg &req)
{
    if (!sys.armed())
        return SpecDirAction::Proceed;
    const TestRange *range = sys.table().lookup(req.elemAddr);
    if (!range)
        return SpecDirAction::Proceed;
    trace::ScopedCtx tctx(sys.now(), req.src, req.elemAddr, req.iter);

    if (range->type == TestType::NonPriv) {
        NPDirResult res =
            npDirWrite(np.at(range->elemIndex(req.elemAddr)), req.src);
        if (res.fail)
            sys.fail(req.src, req.elemAddr, res.reason);
        return SpecDirAction::Proceed;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "cached write of privatization-tested shared array");
    bool untouched = lineUntouched(req.lineAddr, *range);
    PrivPDirResult res =
        privPDirWrite(pp.at(range->elemIndex(req.elemAddr)), req.iter,
                      untouched);
    if (res.needReadIn) {
        startReadIn(req, *range, true);
        return SpecDirAction::Defer;
    }
    if (res.firstWrite)
        sendFirstWriteToShared(*range, req.elemAddr, req.iter);
    return SpecDirAction::Proceed;
}

MsgBits
SpecDirUnit::collectFillBits(NodeId requester, Addr line_addr,
                             IterNum iter)
{
    if (!sys.armed())
        return {};
    const TestRange *range = sys.table().lookup(line_addr);
    if (!range)
        return {};

    uint32_t elems = sys.lineBytes() / range->elemBytes;
    uint32_t first = range->elemIndex(line_addr);
    MsgBits wire(elems);

    if (range->type == TestType::NonPriv) {
        for (uint32_t i = 0; i < elems; ++i) {
            const NPDirBits *b = np.find(first + i);
            wire[i] = npPackDir(b ? *b : NPDirBits{});
        }
        (void)requester;
        return wire;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "fill bits for privatization-tested shared line");
    for (uint32_t i = 0; i < elems; ++i) {
        const PrivPrivDirBits *b = pp.find(first + i);
        if (!b)
            continue;
        wire[i] = privPackTag(b->pMaxR1st == iter, b->pMaxW == iter);
    }
    return wire;
}

void
SpecDirUnit::onDirtyBits(NodeId from, Addr line_addr,
                         const MsgBits &bits)
{
    if (!sys.armed() || bits.empty())
        return;
    const TestRange *range = sys.table().lookup(line_addr);
    if (!range)
        return;
    SPECRT_ASSERT(range->type == TestType::NonPriv,
                  "dirty bits for non-non-priv range");
    uint32_t elems = sys.lineBytes() / range->elemBytes;
    uint32_t first = range->elemIndex(line_addr);
    SPECRT_ASSERT(bits.size() == elems, "dirty bits size mismatch");
    for (uint32_t i = 0; i < elems; ++i) {
        Addr elem = line_addr + i * range->elemBytes;
        trace::ScopedCtx tctx(sys.now(), from, elem, 0);
        NPDirResult res = npDirMergeDirty(np.at(first + i), from,
                                          bits[i]);
        if (res.fail) {
            sys.fail(from, elem, res.reason);
            return;
        }
    }
}

void
SpecDirUnit::onMsg(const Msg &msg)
{
    if (!sys.armed())
        return;

    if (msg.type == MsgType::ReadInReply) {
        PendingReadIn pending;
        bool found = false;
        for (size_t i = 0; i < pendingReadIns.size(); ++i) {
            if (pendingReadIns[i].sharedLine == msg.lineAddr) {
                pending = pendingReadIns[i];
                pendingReadIns[i] = pendingReadIns.back();
                pendingReadIns.pop_back();
                found = true;
                break;
            }
        }
        SPECRT_ASSERT(found, "stray ReadInReply for %#llx",
                      (unsigned long long)msg.lineAddr);

        sys.mem().writeLine(pending.privLine, msg.data.data(),
                            static_cast<uint32_t>(msg.data.size()));
        trace::ScopedCtx tctx(sys.now(), node, pending.privElem,
                              msg.iter);
        const TestRange *prange = sys.table().lookup(pending.privElem);
        SPECRT_ASSERT(prange, "read-in for unloaded private range");
        privPDirReadInDone(pp.at(prange->elemIndex(pending.privElem)),
                           msg.iter, msg.forWrite);
        sys.dirCtrl(node).resumeDeferred(pending.privLine);
        return;
    }

    const TestRange *range = sys.table().lookup(msg.elemAddr);
    SPECRT_ASSERT(range, "spec dir message outside any test range");
    trace::ScopedCtx tctx(sys.now(), msg.src, msg.elemAddr, msg.iter);
    uint32_t slot = range->elemIndex(msg.elemAddr);

    switch (msg.type) {
      case MsgType::FirstUpdate: {
        NPDirResult res = npDirFirstUpdate(np.at(slot), msg.src);
        if (res.fail) {
            sys.fail(msg.src, msg.elemAddr, res.reason);
            return;
        }
        if (res.sendFirstUpdateFail) {
            Msg fail;
            fail.type = MsgType::FirstUpdateFail;
            fail.src = node;
            fail.dst = msg.src;
            fail.lineAddr = msg.lineAddr;
            fail.elemAddr = msg.elemAddr;
            sys.net().send(std::move(fail));
        }
        return;
      }
      case MsgType::ROnlyUpdate: {
        NPDirResult res = npDirROnlyUpdate(np.at(slot), msg.src);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, res.reason);
        return;
      }
      case MsgType::ReadFirstSig: {
        if (range->role == PrivRole::PrivateCopy) {
            // Fig. 8(b): record and forward to the shared directory.
            privPDirReadFirstSig(pp.at(slot), msg.iter);
            sendReadFirstToShared(*range, msg.elemAddr, msg.iter);
            return;
        }
        PrivSDirResult res = privSDirReadFirst(ps.at(slot), msg.iter);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, res.reason);
        return;
      }
      case MsgType::FirstWriteSig: {
        if (range->role == PrivRole::PrivateCopy) {
            // Fig. 9(g).
            PrivPDirResult res =
                privPDirFirstWriteSig(pp.at(slot), msg.iter);
            if (res.firstWrite)
                sendFirstWriteToShared(*range, msg.elemAddr, msg.iter);
            return;
        }
        PrivSDirResult res = privSDirFirstWrite(ps.at(slot), msg.iter);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, res.reason);
        return;
      }
      case MsgType::ReadInReq: {
        SPECRT_ASSERT(range->role == PrivRole::SharedArray,
                      "read-in request at non-shared range");
        PrivSharedDirBits &bits = ps.at(slot);
        PrivSDirResult res =
            msg.forWrite ? privSDirFirstWrite(bits, msg.iter)
                         : privSDirReadFirst(bits, msg.iter);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, res.reason);
        // Reply with the line even on failure so nothing wedges.
        Msg reply;
        reply.type = MsgType::ReadInReply;
        reply.src = node;
        reply.dst = msg.src;
        reply.lineAddr = msg.lineAddr;
        reply.elemAddr = msg.elemAddr;
        reply.iter = msg.iter;
        reply.forWrite = msg.forWrite;
        reply.data.resize(sys.lineBytes());
        sys.mem().readLine(msg.lineAddr, reply.data.data(),
                           sys.lineBytes());
        sys.net().send(std::move(reply), sys.cfg().lat.dirMemAccess);
        return;
      }
      case MsgType::CopyOutSig: {
        SPECRT_ASSERT(range->role == PrivRole::SharedArray,
                      "copy-out at non-shared range");
        ++sys.copyOuts;
        if (privSDirCopyOut(ps.at(slot), msg.iter))
            sys.mem().write(msg.elemAddr, range->elemBytes, msg.value);
        return;
      }
      default:
        panic("dir spec unit got %s", msgTypeName(msg.type));
    }
}

void
SpecDirUnit::clearAll()
{
    np.clear();
    ps.clear();
    pp.clear();
    pendingReadIns.clear();
}

const NPDirBits *
SpecDirUnit::findNp(Addr elem) const
{
    const TestRange *range = sys.table().lookup(elem);
    return range ? np.find(range->elemIndex(elem)) : nullptr;
}

NPDirBits &
SpecDirUnit::npBitsForTest(Addr elem)
{
    const TestRange *range = sys.table().lookup(elem);
    SPECRT_ASSERT(range, "elem %#llx not under test",
                  (unsigned long long)elem);
    return np.at(range->elemIndex(elem));
}

PrivSharedDirBits &
SpecDirUnit::sharedBitsForTest(Addr elem)
{
    const TestRange *range = sys.table().lookup(elem);
    SPECRT_ASSERT(range, "elem %#llx not under test",
                  (unsigned long long)elem);
    return ps.at(range->elemIndex(elem));
}

std::vector<std::pair<Addr, IterNum>>
SpecDirUnit::writtenPrivElems(Addr base, Addr end) const
{
    std::vector<std::pair<Addr, IterNum>> out;
    for (const TestRange &r : sys.table().allRanges()) {
        Addr lo = base > r.base ? base : r.base;
        Addr hi = end < r.end ? end : r.end;
        if (lo >= hi)
            continue;
        size_t first = r.elemIndex(lo);
        size_t n = (hi - lo + r.elemBytes - 1) / r.elemBytes;
        pp.forEach(first, first + n,
                   [&](size_t slot, const PrivPrivDirBits &b) {
                       if (b.pMaxW > 0)
                           out.emplace_back(
                               lo + (slot - first) * r.elemBytes,
                               b.pMaxW);
                   });
    }
    return out;
}

// --------------------------------------------------------------------
// SpecSystem
// --------------------------------------------------------------------

SpecSystem::SpecSystem(DsmSystem &dsm_)
    : StatGroup("spec"),
      firstUpdates(this, "first_updates", "First_update messages"),
      rOnlyUpdates(this, "ronly_updates", "ROnly_update messages"),
      readFirstSigs(this, "read_first_sigs", "read-first signals"),
      firstWriteSigs(this, "first_write_sigs", "first-write signals"),
      readIns(this, "read_ins", "read-in transactions"),
      copyOuts(this, "copy_outs", "copy-out transactions"),
      failures(this, "failures", "speculation failures latched"),
      dsm(dsm_)
{
    for (NodeId n = 0; n < dsm.numProcs(); ++n) {
        cacheUnits.push_back(std::make_unique<SpecCacheUnit>(*this, n));
        dirUnits.push_back(std::make_unique<SpecDirUnit>(*this, n));
        dsm.cacheCtrl(n).setSpecUnit(cacheUnits.back().get());
        dsm.dirCtrl(n).setSpecUnit(dirUnits.back().get());
    }
}

SpecSystem::~SpecSystem()
{
    for (NodeId n = 0; n < dsm.numProcs(); ++n) {
        dsm.cacheCtrl(n).setSpecUnit(nullptr);
        dsm.dirCtrl(n).setSpecUnit(nullptr);
    }
}

void
SpecSystem::arm()
{
    for (auto &u : cacheUnits)
        u->clearAll();
    for (auto &u : dirUnits)
        u->clearAll();
    clearFailure();
    _armed = true;
}

void
SpecSystem::disarm()
{
    _armed = false;
    for (auto &u : dirUnits)
        u->clearPendingReadIns();
}

void
SpecSystem::fail(NodeId node, Addr elem, const char *reason)
{
    if (_failure.failed)
        return;
    _failure.failed = true;
    _failure.node = node;
    _failure.elemAddr = elem;
    _failure.tick = dsm.eventQueue().curTick();
    _failure.reason = reason ? reason : "unspecified";
    ++failures;

    // The failing element's home directory is where its transactions
    // serialized; mark the conflict on the contention heatmap.
    timeline::dirConflict(dsm.memory().homeOf(elem), elem);

    // Flight-recorder abort event: the iteration is only known when
    // the trace's ambient ctx is published (ScopedCtx is gated on
    // trace::enabled()); -1 says "unattributed".
    obs::abortEvent(_failure.tick, elem, node,
                    trace::enabled() ? trace::ctx().iter
                                     : static_cast<IterNum>(-1),
                    _failure.reason.c_str(),
                    trace::violatedRule(reason));

    if (trace::enabled()) {
        // The handler that tripped the detector published the access
        // context (spec ScopedCtx) before running the test logic.
        _failure.iter = trace::ctx().iter;
        auto &buf = trace::buffer();
        _failure.cause = trace::attributeAbort(
            buf, elem, node, _failure.iter, reason, _failure.tick);
        trace::TraceRecord r;
        r.tick = _failure.tick;
        r.op = trace::TraceOp::Abort;
        r.node = node;
        r.iter = _failure.iter;
        r.addr = elem;
        r.label = reason; // detector reasons are string literals
        buf.emit(r);
        // With the timeline on, the attribution report also names
        // the hot home nodes / elements seen so far.
        std::string hot = timeline::enabled()
                              ? timeline::current().hotSummary()
                              : std::string();
        // With the critical-path profiler on, also say what the run
        // was bounded by when it aborted.
        std::string cp = critpath::enabled()
                             ? critpath::summaryLine()
                             : std::string();
        warn("speculation abort attributed:\n%s%s%s%s%s",
             _failure.cause.str().c_str(), hot.empty() ? "" : "\n",
             hot.c_str(), cp.empty() ? "" : "\n", cp.c_str());
    }

    if (abortHook)
        abortHook();
}

std::vector<std::pair<Addr, IterNum>>
SpecSystem::writtenPrivElems(NodeId p, Addr base, Addr end) const
{
    return dirUnits.at(p)->writtenPrivElems(base, end);
}

} // namespace specrt
