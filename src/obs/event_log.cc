#include "obs/event_log.hh"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "sim/sim_context.hh"
#include "sim/trace.hh"

namespace specrt
{
namespace obs
{

// --- EventLog ---------------------------------------------------------

void
EventLog::enable(size_t capacity)
{
    on = true;
    probe::refresh();
    if (capacity == 0)
        capacity = 1;
    if (capacity == cap)
        return;
    // Re-linearize before changing geometry so at()/jsonl() stay
    // oldest-first; shed oldest lines if shrinking.
    std::vector<std::string> flat;
    flat.reserve(ring.size());
    for (size_t i = 0; i < ring.size(); ++i)
        flat.push_back(at(i));
    if (flat.size() > capacity)
        flat.erase(flat.begin(),
                   flat.begin() + (flat.size() - capacity));
    ring = std::move(flat);
    head = 0;
    cap = capacity;
}

void
EventLog::disable()
{
    on = false;
    probe::refresh();
}

void
EventLog::clear()
{
    ring.clear();
    head = 0;
    total = 0;
}

const std::string &
EventLog::at(size_t i) const
{
    if (ring.size() < cap)
        return ring[i];
    return ring[(head + i) % cap];
}

void
EventLog::emit(std::string line)
{
    ++total;
    if (ring.size() < cap) {
        ring.push_back(std::move(line));
        return;
    }
    ring[head] = std::move(line);
    head = (head + 1) % cap;
}

void
EventLog::merge(const EventLog &shard)
{
    for (size_t i = 0; i < shard.size(); ++i)
        emit(shard.at(i));
    // Lines the shard's own ring already shed count as dropped here
    // too: the merged recorded() tally stays the true emit count.
    total += shard.dropped();
}

std::string
EventLog::jsonl() const
{
    std::string out;
    for (size_t i = 0; i < ring.size(); ++i) {
        out += at(i);
        out += '\n';
    }
    return out;
}

// --- context plumbing -------------------------------------------------

EventLog &
log()
{
    return SimContext::current().sinks.events;
}

// --- JSON helpers -----------------------------------------------------

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[64];
    // %.17g round-trips doubles; integers up to 2^53 print exactly.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    // JSON has no inf/nan.
    if (std::strstr(buf, "inf") || std::strstr(buf, "nan"))
        return "0";
    return buf;
}

// --- typed emitters ---------------------------------------------------

namespace
{

/** Emit an executor-level record into the current trace ring. */
void
traceMark(trace::TraceOp op, Tick tick, const char *label,
          uint64_t a = 0)
{
    if (!trace::enabled())
        return;
    trace::TraceRecord r;
    r.tick = tick;
    r.op = op;
    r.a = a;
    r.label = label;
    trace::buffer().emit(r);
}

/** printf into the current log (callers hold the enabled() guard). */
void
emitf(const char *fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

void
emitf(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n < 0)
        return;
    if (static_cast<size_t>(n) >= sizeof(buf))
        buf[sizeof(buf) - 1] = '\0'; // truncated: keep the prefix
    log().emit(buf);
}

} // namespace

void
runBegin(Tick t, const char *mode, uint64_t iters, int procs)
{
    if (trace::enabled()) {
        trace::buffer().setLoop(trace::nextLoopId());
        traceMark(trace::TraceOp::LoopBegin, t, mode, iters);
    }
    if (!enabled())
        return;
    emitf("{\"ev\":\"run_begin\",\"t\":%" PRIu64
          ",\"mode\":\"%s\",\"iters\":%" PRIu64 ",\"procs\":%d}",
          t, mode, iters, procs);
}

void
runEnd(Tick t, const char *mode, bool passed, bool infra_failed,
       uint64_t total_ticks, uint64_t iters)
{
    traceMark(trace::TraceOp::LoopEnd, t,
              infra_failed ? "infra abort"
                           : (passed ? "passed" : "failed"));
    if (!enabled())
        return;
    emitf("{\"ev\":\"run_end\",\"t\":%" PRIu64 ",\"mode\":\"%s\","
          "\"passed\":%s,\"infra_failed\":%s,\"total_ticks\":%" PRIu64
          ",\"iters\":%" PRIu64 "}",
          t, mode, passed ? "true" : "false",
          infra_failed ? "true" : "false", total_ticks, iters);
}

void
jobBegin(uint64_t job, uint64_t seed)
{
    if (!enabled())
        return;
    emitf("{\"ev\":\"job_begin\",\"job\":%" PRIu64
          ",\"seed\":\"0x%" PRIx64 "\"}",
          job, seed);
}

void
jobEnd(uint64_t job, bool ok, const std::string &error)
{
    if (!enabled())
        return;
    std::string esc = jsonEscape(error);
    emitf("{\"ev\":\"job_end\",\"job\":%" PRIu64
          ",\"ok\":%s,\"error\":\"%s\"}",
          job, ok ? "true" : "false", esc.c_str());
}

void
abortEvent(Tick t, Addr elem, NodeId node, IterNum iter,
           const char *reason, const char *rule)
{
    if (!enabled())
        return;
    emitf("{\"ev\":\"abort\",\"t\":%" PRIu64 ",\"elem\":\"0x%" PRIx64
          "\",\"node\":%d,\"iter\":%" PRId64
          ",\"reason\":\"%s\",\"rule\":\"%s\"}",
          t, elem, node, iter,
          jsonEscape(reason ? reason : "unspecified").c_str(),
          jsonEscape(rule ? rule : "").c_str());
}

void
swAbort(Tick t, const char *reason)
{
    traceMark(trace::TraceOp::Abort, t, reason);
    if (!enabled())
        return;
    emitf("{\"ev\":\"sw_abort\",\"t\":%" PRIu64 ",\"reason\":\"%s\"}",
          t, jsonEscape(reason ? reason : "unspecified").c_str());
}

void
faultInject(Tick t, const char *kind, const char *msg_type, int src,
            int dst)
{
    if (!enabled())
        return;
    emitf("{\"ev\":\"fault\",\"t\":%" PRIu64
          ",\"kind\":\"%s\",\"msg\":\"%s\",\"src\":%d,\"dst\":%d}",
          t, kind, msg_type, src, dst);
}

void
degrade(const char *from, const char *to, const std::string &reason)
{
    if (!enabled())
        return;
    emitf("{\"ev\":\"degrade\",\"from\":\"%s\",\"to\":\"%s\","
          "\"reason\":\"%s\"}",
          from, to, jsonEscape(reason).c_str());
}

void
checkpointMark(Tick t, const char *what)
{
    traceMark(trace::TraceOp::Checkpoint, t, what);
    if (!enabled())
        return;
    emitf("{\"ev\":\"checkpoint\",\"t\":%" PRIu64 ",\"what\":\"%s\"}",
          t, jsonEscape(what ? what : "").c_str());
}

void
commitMark(Tick t)
{
    traceMark(trace::TraceOp::Commit, t, "speculative state committed");
    if (!enabled())
        return;
    emitf("{\"ev\":\"commit\",\"t\":%" PRIu64 "}", t);
}

} // namespace obs
} // namespace specrt
