#include "sim/trace.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace specrt
{
namespace trace
{

TraceBuffer &
buffer()
{
    return SimContext::current().sinks.trace;
}

uint32_t
nextLoopId()
{
    return ++SimContext::current().traceNextLoopId;
}

const char *
traceOpName(TraceOp op)
{
    switch (op) {
      case TraceOp::MsgSend: return "msg_send";
      case TraceOp::MsgRecv: return "msg_recv";
      case TraceOp::CacheFill: return "cache_fill";
      case TraceOp::CacheEvict: return "cache_evict";
      case TraceOp::CacheInval: return "cache_inval";
      case TraceOp::DirState: return "dir_state";
      case TraceOp::SpecBit: return "spec_bit";
      case TraceOp::TimeStamp: return "time_stamp";
      case TraceOp::IterBegin: return "iter_begin";
      case TraceOp::IterEnd: return "iter_end";
      case TraceOp::Grant: return "grant";
      case TraceOp::LoopBegin: return "loop_begin";
      case TraceOp::LoopEnd: return "loop_end";
      case TraceOp::Checkpoint: return "checkpoint";
      case TraceOp::Abort: return "abort";
      case TraceOp::Commit: return "commit";
      default: return "?";
    }
}

EventKind
opCategory(TraceOp op)
{
    switch (op) {
      case TraceOp::MsgSend:
      case TraceOp::MsgRecv:
        return EventKind::Network;
      case TraceOp::CacheFill:
      case TraceOp::CacheEvict:
      case TraceOp::CacheInval:
        return EventKind::Cache;
      case TraceOp::DirState:
        return EventKind::Directory;
      case TraceOp::SpecBit:
      case TraceOp::TimeStamp:
      case TraceOp::Abort:
      case TraceOp::Commit:
        return EventKind::Spec;
      case TraceOp::IterBegin:
      case TraceOp::IterEnd:
        return EventKind::Processor;
      case TraceOp::Grant:
      case TraceOp::LoopBegin:
      case TraceOp::LoopEnd:
      case TraceOp::Checkpoint:
        return EventKind::Sched;
      default:
        return EventKind::Generic;
    }
}

const char *
tsStampName(TsStamp s)
{
    switch (s) {
      case TsStamp::MaxR1st: return "MaxR1st";
      case TsStamp::MinW: return "MinW";
      case TsStamp::PMaxR1st: return "PMaxR1st";
      case TsStamp::PMaxW: return "PMaxW";
      default: return "?";
    }
}

void
TraceBuffer::enable(size_t cap)
{
    if (cap == 0)
        cap = 1;
    if (ring.size() != cap) {
        ring.assign(cap, TraceRecord{});
        head = 0;
        wrapped = false;
        total = 0;
    }
    on = true;
    probe::refresh();
}

void
TraceBuffer::disable()
{
    on = false;
    probe::refresh();
}

void
TraceBuffer::clear()
{
    head = 0;
    wrapped = false;
    total = 0;
    curLoop = 0;
}

size_t
TraceBuffer::size() const
{
    return wrapped ? ring.size() : head;
}

uint64_t
TraceBuffer::dropped() const
{
    return total - size();
}

const TraceRecord &
TraceBuffer::at(size_t i) const
{
    SPECRT_ASSERT(i < size(), "trace index out of range");
    size_t base = wrapped ? head : 0;
    return ring[(base + i) % ring.size()];
}

void
TraceBuffer::emit(const TraceRecord &r)
{
    if (!on || ring.empty())
        return;
    TraceRecord &slot = ring[head];
    slot = r;
    slot.loop = curLoop;
    ++total;
    if (++head == ring.size()) {
        head = 0;
        wrapped = true;
    }
}

void
specBits(const Access &a, bool is_write, uint32_t old_packed,
         uint32_t new_packed)
{
    if (!enabled() || old_packed == new_packed)
        return;
    TraceRecord r;
    r.tick = a.tick;
    r.op = TraceOp::SpecBit;
    r.sub = is_write ? 1 : 0;
    r.node = a.node;
    r.iter = a.iter;
    r.addr = a.elem;
    r.a = old_packed;
    r.b = new_packed;
    r.label = is_write ? "write" : "read";
    buffer().emit(r);
}

void
timeStamp(const Access &a, TsStamp which, IterNum old_v, IterNum new_v)
{
    if (!enabled() || old_v == new_v)
        return;
    TraceRecord r;
    r.tick = a.tick;
    r.op = TraceOp::TimeStamp;
    r.sub = static_cast<uint8_t>(which);
    r.node = a.node;
    r.iter = a.iter;
    r.addr = a.elem;
    r.a = static_cast<uint64_t>(old_v);
    r.b = static_cast<uint64_t>(new_v);
    r.label = tsStampName(which);
    buffer().emit(r);
}

// --- abort-cause attribution ------------------------------------------

namespace
{

/**
 * Detector reason -> paper rule. Matched by substring so the
 * detectors keep owning the exact phrasing; first hit wins.
 */
struct RuleMap
{
    const char *needle;
    const char *rule;
};

const RuleMap ruleTable[] = {
    // §3.2 non-privatization access bits. The needles cover every
    // detector site: "element written by another" catches the read /
    // read-fill / read-request variants, "element accessed by
    // another" and "element read or written by another" the write
    // variants (tests/test_trace.cc asserts the full coverage).
    {"element written by another",
     "§3.2: a processor may not read an element already written by a "
     "different processor (First/NoShr bits; flow dependence across "
     "iterations)"},
    {"element accessed by another",
     "§3.2: a processor may not write an element already read or "
     "written by a different processor (NoShr bit cleared by a second "
     "accessor)"},
    {"element read or written by another",
     "§3.2: a processor may not write an element already read or "
     "written by a different processor (NoShr bit cleared by a second "
     "accessor)"},
    {"contradictory First merge",
     "§3.2: merging per-processor First bits found two distinct "
     "first accessors for the same element"},
    {"element both written and read-shared",
     "§3.2: merged dirty bits show an element both written and "
     "read-shared across processors (ROnly violated)"},
    {"race between",
     "§3.2: an in-transit spec-bit update raced with a concurrent "
     "access to the same element; the conservative in-transit rule "
     "treats the race as a dependence"},
    {"non-reduction access",
     "reduction test: an array under the reduction test may only be "
     "accessed from its reduction statement (LRPD reduction "
     "validity)"},
    // §3.3 privatization time stamps.
    {"read-first iteration after a writing iteration",
     "§3.3: MaxR1st > MinW -- an iteration read the element before "
     "writing it, while an earlier iteration wrote it (flow "
     "dependence; privatization test fails)"},
    {"writing iteration before a read-first iteration",
     "§3.3: MinW < MaxR1st -- an iteration wrote the element while a "
     "later iteration had read it first (flow dependence; "
     "privatization test fails)"},
};

bool
isAccessOp(const TraceRecord &r)
{
    return r.op == TraceOp::SpecBit || r.op == TraceOp::TimeStamp;
}

} // namespace

const char *
violatedRule(const char *reason)
{
    if (reason) {
        for (const RuleMap &m : ruleTable) {
            if (std::strstr(reason, m.needle))
                return m.rule;
        }
    }
    return "unmapped detector reason -- see §3.2/§3.3 for the access "
           "rules";
}

AbortCause
attributeAbort(const TraceBuffer &buf, Addr elem, NodeId node,
               IterNum iter, const char *reason, Tick tick)
{
    AbortCause cause;
    cause.valid = true;
    cause.elemAddr = elem;
    cause.failNode = node;
    cause.failIter = iter;
    cause.reason = reason;
    cause.rule = violatedRule(reason);

    // Newest-to-oldest. The failing access is the newest record for
    // the element attributable to the failing (node, iteration); a
    // rejected access often left no bit change behind, so it may be
    // absent. The conflicting earlier access is the newest record
    // for the element by any OTHER (node, iteration) pair.
    size_t n = buf.size();
    for (size_t i = n; i-- > 0;) {
        const TraceRecord &r = buf.at(i);
        if (!isAccessOp(r) || r.addr != elem || r.tick > tick)
            continue;
        bool same = r.node == node && r.iter == iter;
        if (same && !cause.haveFailing) {
            cause.failing = r;
            cause.haveFailing = true;
        } else if (!same && !cause.haveEarlier) {
            cause.earlier = r;
            cause.haveEarlier = true;
        }
        if (cause.haveFailing && cause.haveEarlier)
            break;
    }
    return cause;
}

std::string
AbortCause::str() const
{
    std::ostringstream os;
    if (!valid) {
        os << "abort cause: <none>";
        return os.str();
    }
    os << "abort cause: element 0x" << std::hex << elemAddr
       << std::dec << " at node " << failNode << ", iteration "
       << failIter;
    os << "\n  reason: " << (reason ? reason : "?")
       << "\n  rule:   " << (rule ? rule : "?");
    auto access = [&os](const char *tag, const TraceRecord &r) {
        os << "\n  " << tag << " " << traceOpName(r.op) << " ("
           << (r.label ? r.label : "?") << ") by node " << r.node
           << " iter " << r.iter << " @ tick " << r.tick;
    };
    if (haveEarlier)
        access("earlier:", earlier);
    if (haveFailing)
        access("failing:", failing);
    if (!haveEarlier)
        os << "\n  (conflicting access not in the trace ring)";
    return os.str();
}

} // namespace trace
} // namespace specrt
