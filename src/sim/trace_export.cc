#include "sim/trace_export.hh"

#include <set>
#include <sstream>

#include "obs/event_log.hh"
#include "sim/critpath.hh"
#include "sim/timeline.hh"
#include "sim/trace.hh"

namespace specrt
{
namespace trace
{

namespace
{

/**
 * Synthetic pid for records with no node (loop begin/end,
 * checkpoints, executor-level aborts). Keeps machine-scope events on
 * their own track instead of polluting node 0.
 */
constexpr int machinePid = 9999;

/** Synthetic pid for the timeline's counter tracks. */
constexpr int counterPid = 9998;

/** Lanes (tids) within each node's track. */
constexpr int tidIter = 0;
constexpr int tidMsg = 1;
constexpr int tidProto = 2;

int
pidOf(const TraceRecord &r)
{
    return r.node == invalidNode ? machinePid
                                 : static_cast<int>(r.node);
}

/** One trace event object; `extra` is raw JSON appended verbatim. */
void
event(std::ostringstream &os, bool &first, const std::string &name,
      const char *ph, uint64_t ts, int pid, int tid,
      const std::string &extra = "")
{
    os << (first ? "\n" : ",\n") << "  {\"name\": \"" << name
       << "\", \"ph\": \"" << ph << "\", \"ts\": " << ts
       << ", \"pid\": " << pid << ", \"tid\": " << tid;
    if (!extra.empty())
        os << ", " << extra;
    os << "}";
    first = false;
}

std::string
argsCommon(const TraceRecord &r)
{
    std::ostringstream os;
    os << "\"args\": {\"loop\": " << r.loop << ", \"iter\": " << r.iter;
    if (r.addr != invalidAddr)
        os << ", \"elem\": \"0x" << std::hex << r.addr << std::dec
           << "\"";
    return os.str();
}

} // namespace

namespace
{

/**
 * The timeline's sampled series as Perfetto counter tracks: one "C"
 * event per (series, sample row), all on a synthetic "metrics"
 * process. Same tick timebase as the trace events, so counters and
 * protocol activity line up in the viewer.
 */
void
counterTracks(std::ostringstream &os, bool &first,
              const timeline::Timeline &tl)
{
    if (tl.numSamples() == 0)
        return;
    event(os, first, "process_name", "M", 0, counterPid, 0,
          "\"args\": {\"name\": \"metrics\"}");
    const std::vector<Tick> &ticks = tl.sampleTicks();
    const std::vector<uint32_t> &runs = tl.sampleRuns();
    for (const timeline::Timeline::Series &s : tl.allSeries()) {
        for (size_t row = 0; row < ticks.size(); ++row) {
            std::ostringstream extra;
            extra << "\"args\": {\"value\": "
                  << obs::jsonNumber(s.values[row])
                  << ", \"run\": " << runs[row] << "}";
            event(os, first, obs::jsonEscape(s.name), "C", ticks[row],
                  counterPid, 0, extra.str());
        }
    }
}

} // namespace

std::string
chromeTraceJson(const TraceBuffer &buf, const timeline::Timeline *tl,
                const critpath::Recorder *cp)
{
    std::ostringstream os;
    os << "{\"traceEvents\": [";
    bool first = true;

    // Metadata: name the per-node processes and their lanes, plus
    // the machine-scope track.
    std::set<int> pids;
    for (size_t i = 0; i < buf.size(); ++i)
        pids.insert(pidOf(buf.at(i)));
    for (int pid : pids) {
        std::ostringstream name;
        if (pid == machinePid)
            name << "machine";
        else
            name << "node " << pid;
        event(os, first, "process_name", "M", 0, pid, 0,
              "\"args\": {\"name\": \"" + name.str() + "\"}");
        event(os, first, "thread_name", "M", 0, pid, tidIter,
              "\"args\": {\"name\": \"iterations\"}");
        if (pid != machinePid) {
            event(os, first, "thread_name", "M", 0, pid, tidMsg,
                  "\"args\": {\"name\": \"messages\"}");
            event(os, first, "thread_name", "M", 0, pid, tidProto,
                  "\"args\": {\"name\": \"protocol\"}");
        }
    }

    for (size_t i = 0; i < buf.size(); ++i) {
        const TraceRecord &r = buf.at(i);
        int pid = pidOf(r);
        const char *cat = eventKindName(opCategory(r.op));
        std::ostringstream nm;

        switch (r.op) {
          case TraceOp::IterBegin:
          case TraceOp::IterEnd:
            nm << "iter " << r.iter;
            event(os, first, nm.str(),
                  r.op == TraceOp::IterBegin ? "B" : "E", r.tick, pid,
                  tidIter, argsCommon(r) + "}");
            break;

          case TraceOp::LoopBegin:
          case TraceOp::LoopEnd:
            nm << "loop " << r.loop << " ("
               << obs::jsonEscape(r.label ? r.label : "?") << ")";
            event(os, first, nm.str(),
                  r.op == TraceOp::LoopBegin ? "B" : "E", r.tick, pid,
                  tidIter, argsCommon(r) + "}");
            break;

          case TraceOp::MsgSend:
          case TraceOp::MsgRecv: {
            nm << obs::jsonEscape(r.label ? r.label : "msg");
            // A dur-1 slice on the endpoint's message lane...
            std::ostringstream extra;
            extra << "\"dur\": 1, \"cat\": \"" << cat << "\", "
                  << argsCommon(r) << ", \"peer\": " << r.peer
                  << ", \"flow\": " << r.b << "}";
            event(os, first, nm.str(), "X", r.tick, pid, tidMsg,
                  extra.str());
            // ...plus a flow arrow endpoint keyed by the flow id.
            std::ostringstream fl;
            fl << "\"cat\": \"" << cat << "\", \"id\": " << r.b;
            if (r.op == TraceOp::MsgRecv)
                fl << ", \"bp\": \"e\"";
            event(os, first, nm.str(),
                  r.op == TraceOp::MsgSend ? "s" : "f", r.tick, pid,
                  tidMsg, fl.str());
            break;
          }

          case TraceOp::Abort: {
            nm << "ABORT: "
               << obs::jsonEscape(r.label ? r.label : "?");
            std::ostringstream extra;
            extra << "\"s\": \"g\", \"cat\": \"" << cat << "\", "
                  << argsCommon(r) << ", \"node\": " << r.node << "}";
            event(os, first, nm.str(), "i", r.tick, pid, tidProto,
                  extra.str());
            break;
          }

          default: {
            // Protocol-state instants: cache/dir transitions,
            // spec-bit and time-stamp updates, grants, checkpoints,
            // commits.
            nm << traceOpName(r.op);
            if (r.label)
                nm << " " << obs::jsonEscape(r.label);
            std::ostringstream extra;
            extra << "\"s\": \"t\", \"cat\": \"" << cat << "\", "
                  << argsCommon(r) << ", \"old\": " << r.a
                  << ", \"new\": " << r.b << "}";
            int tid = pid == machinePid ? tidIter : tidProto;
            event(os, first, nm.str(), "i", r.tick, pid, tid,
                  extra.str());
            break;
          }
        }
    }

    if (tl)
        counterTracks(os, first, *tl);

    // The critical-path recorder's async track (slow load misses as
    // nested per-component slices) shares the tick timebase.
    if (cp && cp->hasData()) {
        std::string cpEvents;
        cp->appendTraceEvents(cpEvents, first);
        os << cpEvents;
    }

    os << "\n],\n\"displayTimeUnit\": \"ns\",\n"
       << "\"otherData\": {\"recorded\": " << buf.recorded()
       << ", \"dropped\": " << buf.dropped() << "}}\n";
    return os.str();
}

} // namespace trace
} // namespace specrt
