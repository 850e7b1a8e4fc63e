#include "spec/spec_unit.hh"

#include "obs/event_log.hh"
#include "sim/critpath.hh"
#include "sim/logging.hh"
#include "sim/probe.hh"
#include "sim/timeline.hh"

namespace specrt
{

namespace
{

/**
 * Record one packed access-bit change of access @p a: the trace's
 * SpecBit record and the timeline's spec.transitions count.
 */
void
noteBits(const trace::Access &a, bool is_write, uint32_t was,
         uint32_t now)
{
    if (was == now)
        return;
    timeline::specTransition();
    trace::specBits(a, is_write, was, now);
}

/** Record one time-stamp move of access @p a, likewise. */
void
noteStamp(const trace::Access &a, trace::TsStamp which, IterNum was,
          IterNum now)
{
    if (was == now)
        return;
    timeline::specTransition();
    trace::timeStamp(a, which, was, now);
}

// What one step changed, per kind of state. A cache tag packs
// First = Own with the access's node, which is the unit's own.

void
note(const trace::Access &a, bool is_write, const NPTagBits &was,
     const NPTagBits &now)
{
    noteBits(a, is_write, npPackTag(was, a.node),
             npPackTag(now, a.node));
}

void
note(const trace::Access &a, bool is_write, const NPDirBits &was,
     const NPDirBits &now)
{
    noteBits(a, is_write, npPackDir(was), npPackDir(now));
}

void
note(const trace::Access &a, bool, const PrivPrivDirBits &was,
     const PrivPrivDirBits &now)
{
    noteStamp(a, trace::TsStamp::PMaxR1st, was.pMaxR1st, now.pMaxR1st);
    noteStamp(a, trace::TsStamp::PMaxW, was.pMaxW, now.pMaxW);
}

void
note(const trace::Access &a, bool, const PrivSharedDirBits &was,
     const PrivSharedDirBits &now)
{
    noteStamp(a, trace::TsStamp::MaxR1st, was.maxR1st, now.maxR1st);
    noteStamp(a, trace::TsStamp::MinW, was.minW, now.minW);
}

/**
 * The change one pure-logic step (spec/nonpriv.hh, spec/priv.hh)
 * makes to one element's bits, recorded for the access that caused
 * it. Construct it just before the step and call done() as soon as
 * the step returns, before the handler sends a message or fails the
 * loop, so the records keep their place in the trace ring. The probe
 * word is tested once; while the trace and the timeline are both off
 * nothing is copied or packed.
 */
template <typename Bits>
class Watch
{
  public:
    explicit Watch(const Bits &bits_)
        : bits(bits_), on(probe::on(probe::Trace | probe::Timeline))
    {
        if (on)
            was = bits;
    }

    void
    done(const trace::Access &a, bool is_write = false) const
    {
        if (on)
            note(a, is_write, was, bits);
    }

  private:
    const Bits &bits;
    bool on;
    Bits was{};
};

} // namespace

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

    if (range->type == TestType::NonPriv) {
        NPTagBits &bits = npTags.slice(first, elems)[idx];
        Watch w(bits);
        NPCacheResult res =
            npCacheRead(bits, state == LineState::Dirty);
        w.done({sys.now(), node, addr, iter});
        if (res.fail) {
            sys.fail(node, addr, iter, res.reason);
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
            m.iter = iter;
            if (res.sendFirstUpdate)
                ++sys.firstUpdates;
            else
                ++sys.rOnlyUpdates;
            sys.net().send(m);
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
        sys.net().send(m);
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

    if (range->type == TestType::NonPriv) {
        NPTagBits &bits = npTags.slice(first, elems)[idx];
        Watch w(bits);
        NPCacheResult res = npCacheWriteDirty(bits);
        w.done({sys.now(), node, addr, iter}, true);
        if (res.fail)
            sys.fail(node, addr, iter, res.reason);
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
        sys.net().send(m);
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

    if (range->type == TestType::NonPriv) {
        SPECRT_ASSERT(bits.size() == elems,
                      "non-priv fill with %u bits, want %u",
                      bits.size(), elems);
        NPTagBits *tags = npTags.slice(first, elems);
        for (size_t i = 0; i < elems; ++i)
            tags[i] = npWireToTag(bits[i], node);
        Watch w(tags[idx]);
        NPCacheResult res = npCacheLocalApply(tags[idx], is_write);
        w.done({sys.now(), node, elem_addr, iter}, is_write);
        if (res.fail)
            sys.fail(node, elem_addr, iter, res.reason);
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
    Watch w(tags[idx]);
    NPCacheResult res = npCacheFirstUpdateFail(tags[idx]);
    w.done({sys.now(), node, msg.elemAddr, msg.iter});
    if (res.fail)
        sys.fail(node, msg.elemAddr, msg.iter, res.reason);
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
    sys.net().send(m);
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
    sys.net().send(m);
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
    sys.net().send(m);
}

SpecDirAction
SpecDirUnit::onReadReq(const Msg &req)
{
    if (!sys.armed())
        return SpecDirAction::Proceed;
    const TestRange *range = sys.table().lookup(req.elemAddr);
    if (!range)
        return SpecDirAction::Proceed;
    const trace::Access acc{sys.now(), req.src, req.elemAddr, req.iter};

    if (range->type == TestType::NonPriv) {
        NPDirBits &bits = np.at(range->elemIndex(req.elemAddr));
        Watch w(bits);
        NPDirResult res = npDirRead(bits, req.src);
        w.done(acc);
        if (res.fail)
            sys.fail(req.src, req.elemAddr, req.iter, res.reason);
        return SpecDirAction::Proceed;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "cached read of privatization-tested shared array");
    bool untouched = lineUntouched(req.lineAddr, *range);
    PrivPrivDirBits &bits = pp.at(range->elemIndex(req.elemAddr));
    Watch w(bits);
    PrivPDirResult res = privPDirRead(bits, req.iter, untouched);
    w.done(acc);
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
    const trace::Access acc{sys.now(), req.src, req.elemAddr, req.iter};

    if (range->type == TestType::NonPriv) {
        NPDirBits &bits = np.at(range->elemIndex(req.elemAddr));
        Watch w(bits);
        NPDirResult res = npDirWrite(bits, req.src);
        w.done(acc, true);
        if (res.fail)
            sys.fail(req.src, req.elemAddr, req.iter, res.reason);
        return SpecDirAction::Proceed;
    }

    SPECRT_ASSERT(range->role == PrivRole::PrivateCopy,
                  "cached write of privatization-tested shared array");
    bool untouched = lineUntouched(req.lineAddr, *range);
    PrivPrivDirBits &bits = pp.at(range->elemIndex(req.elemAddr));
    Watch w(bits);
    PrivPDirResult res = privPDirWrite(bits, req.iter, untouched);
    w.done(acc);
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
        NPDirBits &d = np.at(first + i);
        Watch w(d);
        NPDirResult res = npDirMergeDirty(d, from, bits[i]);
        // A merge has no single access, so no iteration either.
        w.done({sys.now(), from, elem, 0}, true);
        if (res.fail) {
            sys.fail(from, elem, 0, res.reason);
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
        const TestRange *prange = sys.table().lookup(pending.privElem);
        SPECRT_ASSERT(prange, "read-in for unloaded private range");
        PrivPrivDirBits &bits = pp.at(prange->elemIndex(pending.privElem));
        Watch w(bits);
        privPDirReadInDone(bits, msg.iter, msg.forWrite);
        w.done({sys.now(), node, pending.privElem, msg.iter});
        sys.dirCtrl(node).resumeDeferred(pending.privLine);
        return;
    }

    const TestRange *range = sys.table().lookup(msg.elemAddr);
    SPECRT_ASSERT(range, "spec dir message outside any test range");
    const trace::Access acc{sys.now(), msg.src, msg.elemAddr, msg.iter};
    uint32_t slot = range->elemIndex(msg.elemAddr);

    switch (msg.type) {
      case MsgType::FirstUpdate: {
        NPDirBits &bits = np.at(slot);
        Watch w(bits);
        NPDirResult res = npDirFirstUpdate(bits, msg.src);
        w.done(acc);
        if (res.fail) {
            sys.fail(msg.src, msg.elemAddr, msg.iter, res.reason);
            return;
        }
        if (res.sendFirstUpdateFail) {
            Msg fail;
            fail.type = MsgType::FirstUpdateFail;
            fail.src = node;
            fail.dst = msg.src;
            fail.lineAddr = msg.lineAddr;
            fail.elemAddr = msg.elemAddr;
            fail.iter = msg.iter;
            sys.net().send(fail);
        }
        return;
      }
      case MsgType::ROnlyUpdate: {
        NPDirBits &bits = np.at(slot);
        Watch w(bits);
        NPDirResult res = npDirROnlyUpdate(bits, msg.src);
        w.done(acc);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, msg.iter, res.reason);
        return;
      }
      case MsgType::ReadFirstSig: {
        if (range->role == PrivRole::PrivateCopy) {
            // Fig. 8(b): record and forward to the shared directory.
            PrivPrivDirBits &bits = pp.at(slot);
            Watch w(bits);
            privPDirReadFirstSig(bits, msg.iter);
            w.done(acc);
            sendReadFirstToShared(*range, msg.elemAddr, msg.iter);
            return;
        }
        PrivSharedDirBits &bits = ps.at(slot);
        Watch w(bits);
        PrivSDirResult res = privSDirReadFirst(bits, msg.iter);
        w.done(acc);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, msg.iter, res.reason);
        return;
      }
      case MsgType::FirstWriteSig: {
        if (range->role == PrivRole::PrivateCopy) {
            // Fig. 9(g).
            PrivPrivDirBits &bits = pp.at(slot);
            Watch w(bits);
            PrivPDirResult res = privPDirFirstWriteSig(bits, msg.iter);
            w.done(acc);
            if (res.firstWrite)
                sendFirstWriteToShared(*range, msg.elemAddr, msg.iter);
            return;
        }
        PrivSharedDirBits &bits = ps.at(slot);
        Watch w(bits);
        PrivSDirResult res = privSDirFirstWrite(bits, msg.iter);
        w.done(acc);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, msg.iter, res.reason);
        return;
      }
      case MsgType::ReadInReq: {
        SPECRT_ASSERT(range->role == PrivRole::SharedArray,
                      "read-in request at non-shared range");
        PrivSharedDirBits &bits = ps.at(slot);
        Watch w(bits);
        PrivSDirResult res =
            msg.forWrite ? privSDirFirstWrite(bits, msg.iter)
                         : privSDirReadFirst(bits, msg.iter);
        w.done(acc);
        if (res.fail)
            sys.fail(msg.src, msg.elemAddr, msg.iter, res.reason);
        // Reply with the line even on failure so nothing wedges.
        Msg reply;
        reply.type = MsgType::ReadInReply;
        reply.src = node;
        reply.dst = msg.src;
        reply.lineAddr = msg.lineAddr;
        reply.elemAddr = msg.elemAddr;
        reply.iter = msg.iter;
        reply.forWrite = msg.forWrite;
        reply.data.assign(sys.mem().lineData(msg.lineAddr,
                                             sys.lineBytes()),
                          sys.lineBytes());
        sys.net().send(reply, sys.cfg().lat.dirMemAccess);
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
SpecSystem::fail(NodeId node, Addr elem, IterNum iter,
                 const char *reason)
{
    if (_failure.failed)
        return;
    _failure.failed = true;
    _failure.node = node;
    _failure.elemAddr = elem;
    _failure.tick = dsm.eventQueue().curTick();
    _failure.iter = iter;
    _failure.reason = reason ? reason : "unspecified";
    ++failures;

    // The failing element's home directory is where its transactions
    // serialized; mark the conflict on the contention heatmap.
    timeline::dirConflict(dsm.memory().homeOf(elem), elem);

    obs::abortEvent(_failure.tick, elem, node, iter,
                    _failure.reason.c_str(),
                    trace::violatedRule(reason));

    if (trace::enabled()) {
        auto &buf = trace::buffer();
        _failure.cause = trace::attributeAbort(buf, elem, node, iter,
                                               reason, _failure.tick);
        trace::TraceRecord r;
        r.tick = _failure.tick;
        r.op = trace::TraceOp::Abort;
        r.node = node;
        r.iter = iter;
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
                             ? critpath::current().summaryLine()
                             : std::string();
        warn("speculation abort attributed:\n%s%s%s%s%s",
             _failure.cause.str().c_str(), hot.empty() ? "" : "\n",
             hot.c_str(), cp.empty() ? "" : "\n", cp.c_str());
    }

    if (abortHook)
        abortHook();
}

} // namespace specrt
