#include "sim/critpath.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/event_log.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace specrt
{
namespace critpath
{

Recorder &
current()
{
    return SimContext::current().sinks.critpath;
}

void
Recorder::enable()
{
    on = true;
    probe::refresh();
}

void
Recorder::disable()
{
    on = false;
    probe::refresh();
}

// --- collection -------------------------------------------------------

namespace
{

/** Slowest first; every tiebreak deterministic (campaign merges). */
bool
slowerThan(const TxnRecord &a, const TxnRecord &b)
{
    if (a.latency() != b.latency())
        return a.latency() > b.latency();
    if (a.start != b.start)
        return a.start < b.start;
    if (a.node != b.node)
        return a.node < b.node;
    return a.seq < b.seq;
}

} // namespace

void
Recorder::addTxn(const TxnRecord &r)
{
    ++txnsSeen;
    HomeAgg &h = homeAgg[r.home];
    h.dirWait += r.dirWait;
    ++h.txns;
    h.minElem = std::min(h.minElem, r.elem);
    h.maxElem = std::max(h.maxElem, r.elem);

    top.push_back(r);
    std::sort(top.begin(), top.end(), slowerThan);
    if (top.size() > topK)
        top.resize(topK);
}

stall::Engine &
Recorder::beginRun(int nprocs)
{
    eng.p = std::make_unique<stall::Engine>(nprocs, this);
    return *eng.p;
}

stall::CostBreakdown
Recorder::endRun(Tick total_ticks)
{
    SPECRT_ASSERT(eng.p, "critpath: endRun() without beginRun()");
    stall::CostBreakdown run =
        eng.p->breakdown(static_cast<double>(total_ticks));
    ++runsSeen;
    sum.add(run);
    return run;
}

void
Recorder::merge(const Recorder &shard)
{
    runsSeen += shard.runsSeen;
    txnsSeen += shard.txnsSeen;
    sum.add(shard.sum);
    for (const auto &kv : shard.homeAgg) {
        HomeAgg &h = homeAgg[kv.first];
        h.dirWait += kv.second.dirWait;
        h.txns += kv.second.txns;
        h.minElem = std::min(h.minElem, kv.second.minElem);
        h.maxElem = std::max(h.maxElem, kv.second.maxElem);
    }
    top.insert(top.end(), shard.top.begin(), shard.top.end());
    std::sort(top.begin(), top.end(), slowerThan);
    if (top.size() > topK)
        top.resize(topK);
}

// --- reports ----------------------------------------------------------

std::string
Recorder::summaryLine() const
{
    std::string line = sum.summary();
    if (!line.empty() && sum.dominantCause() == stall::Cause::DirQueue &&
        !homeAgg.empty()) {
        NodeId hot = homeAgg.begin()->first;
        double hot_wait = -1;
        for (const auto &kv : homeAgg) {
            if (kv.second.dirWait > hot_wait) {
                hot_wait = kv.second.dirWait;
                hot = kv.first;
            }
        }
        const HomeAgg &h = homeAgg.at(hot);
        if (h.txns > 0 && h.minElem <= h.maxElem) {
            char buf[128];
            std::snprintf(buf, sizeof(buf),
                          " at home node %d, elements 0x%llx-0x%llx",
                          static_cast<int>(hot),
                          static_cast<unsigned long long>(h.minElem),
                          static_cast<unsigned long long>(h.maxElem));
            line += buf;
        }
    }
    return line;
}

namespace
{

/** @p s as a JSON string literal. */
std::string
quoted(const std::string &s)
{
    return '"' + obs::jsonEscape(s) + '"';
}

void
event(std::string &out, bool &first, const std::string &body)
{
    if (!first)
        out += ',';
    first = false;
    out += '\n';
    out += body;
}

/** One async begin/end pair on the critpath track. */
void
asyncSlice(std::string &out, bool &first, const std::string &id,
           const std::string &name, NodeId tid, double ts_b,
           double ts_e, const std::string &args)
{
    std::string b = "{\"cat\":\"critpath\",\"name\":" + quoted(name) +
                    ",\"ph\":\"b\",\"id\":" + quoted(id) +
                    ",\"ts\":" + obs::jsonNumber(ts_b) +
                    ",\"pid\":" + std::to_string(Recorder::perfettoPid) +
                    ",\"tid\":" + std::to_string(tid);
    if (!args.empty())
        b += ",\"args\":" + args;
    b += "}";
    event(out, first, b);
    event(out, first,
          "{\"cat\":\"critpath\",\"name\":" + quoted(name) +
              ",\"ph\":\"e\",\"id\":" + quoted(id) +
              ",\"ts\":" + obs::jsonNumber(ts_e) +
              ",\"pid\":" + std::to_string(Recorder::perfettoPid) +
              ",\"tid\":" + std::to_string(tid) + "}");
}

} // namespace

void
Recorder::appendTraceEvents(std::string &out, bool &first) const
{
    if (top.empty() && !hasData())
        return;

    event(out, first,
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
              std::to_string(perfettoPid) +
              ",\"args\":{\"name\":\"critical path\"}}");

    std::vector<NodeId> nodes;
    for (const TxnRecord &t : top)
        if (std::find(nodes.begin(), nodes.end(), t.node) ==
            nodes.end())
            nodes.push_back(t.node);
    std::sort(nodes.begin(), nodes.end());
    for (NodeId n : nodes)
        event(out, first,
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" +
                  std::to_string(perfettoPid) +
                  ",\"tid\":" + std::to_string(n) +
                  ",\"args\":{\"name\":\"node " + std::to_string(n) +
                  " slow loads\"}}");

    for (const TxnRecord &t : top) {
        std::string id =
            std::to_string(t.node) + ":" + std::to_string(t.seq);
        char ebuf[64];
        std::snprintf(ebuf, sizeof(ebuf), "load 0x%llx",
                      static_cast<unsigned long long>(t.elem));
        std::string args =
            "{\"home\":" + std::to_string(t.home) +
            ",\"iter\":" + std::to_string(t.iter) +
            ",\"seq\":" + std::to_string(t.seq) +
            ",\"dir_wait\":" + obs::jsonNumber(t.dirWait) +
            ",\"net\":" + obs::jsonNumber(t.net) +
            ",\"retry\":" + obs::jsonNumber(t.retry) +
            ",\"service\":" + obs::jsonNumber(t.service) + "}";
        asyncSlice(out, first, id, ebuf, t.node,
                   static_cast<double>(t.start),
                   static_cast<double>(t.end), args);

        // Child slices: canonical component order request-net,
        // dir-queue, retry, service (+reply-net). The remainder of
        // the measured latency folds into the service slice.
        double ts = static_cast<double>(t.start);
        double net_req = std::floor(t.net / 2);
        double net_rep = t.net - net_req;
        double service = static_cast<double>(t.end) -
                         static_cast<double>(t.start) - t.net -
                         t.dirWait - t.retry;
        if (service < 0)
            service = 0;
        struct Seg
        {
            const char *name;
            double len;
        } segs[] = {
            {"net request", net_req}, {"dir-queue", t.dirWait},
            {"retry-backoff", t.retry}, {"service", service},
            {"net reply", net_rep},
        };
        int si = 0;
        for (const Seg &s : segs) {
            ++si;
            if (s.len <= 0)
                continue;
            asyncSlice(out, first,
                       id + ":" + std::to_string(si), s.name, t.node,
                       ts, ts + s.len, "");
            ts += s.len;
        }
    }

    std::string line = summaryLine();
    if (!line.empty())
        event(out, first,
              "{\"name\":\"critpath summary\",\"ph\":\"i\",\"ts\":0,"
              "\"pid\":" +
                  std::to_string(perfettoPid) +
                  ",\"tid\":0,\"s\":\"p\",\"args\":{\"summary\":" +
                  quoted(line) + "}}");
}

std::string
Recorder::perfettoJson() const
{
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    appendTraceEvents(out, first);
    out += "\n],\n\"displayTimeUnit\":\"ms\",\n\"critpath\":{";
    out += "\"summary\":" + quoted(summaryLine());
    out += ",\"runs\":" + std::to_string(runsSeen);
    out += ",\"txns\":" + std::to_string(txnsSeen);
    out += ",\"procs\":" + std::to_string(sum.numProcs);
    out += ",\"run_ticks\":" + obs::jsonNumber(sum.perNodeTicks);
    out += ",\"node_ticks\":" + obs::jsonNumber(sum.nodeTicks);
    out += ",\"busy\":" + obs::jsonNumber(sum.busy);
    out += ",\"stall\":{";
    for (size_t c = 0; c < stall::numCauses; ++c) {
        if (c)
            out += ',';
        out += '"';
        out += stall::causeName(static_cast<stall::Cause>(c));
        out += "\":" + obs::jsonNumber(sum.stalls[c]);
    }
    out += "}}}\n";
    return out;
}

} // namespace critpath
} // namespace specrt
