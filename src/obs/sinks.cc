#include "obs/sinks.hh"

#include <cstdlib>
#include <filesystem>
#include <mutex>

#include "sim/logging.hh"
#include "sim/sim_context.hh"
#include "sim/trace_export.hh"

namespace specrt
{
namespace obs
{

namespace
{

/** One row of the sink table. */
struct Sink
{
    uint32_t bit;     ///< sim/probe.hh
    const char *name; ///< token in SPECRT_OBS / --obs
    const char *file; ///< fixed file name in the export directory
    bool (*hasData)(const Sinks &);
    std::string (*render)(const Sinks &);
    /** Switch on with @p like's parameters (null: the defaults). */
    void (*enable)(Sinks &s, const Sinks *like);
    /** Fold a campaign job's shard in; null: not fanned out. */
    void (*merge)(Sinks &dst, const Sinks &shard);
};

const Sink sinkTable[] = {
    {probe::Trace, "trace", "trace.json",
     [](const Sinks &s) { return s.trace.recorded() != 0; },
     [](const Sinks &s) {
         return trace::chromeTraceJson(
             s.trace, s.timeline.numSamples() ? &s.timeline : nullptr,
             &s.critpath);
     },
     [](Sinks &s, const Sinks *) { s.trace.enable(); }, nullptr},
    {probe::Timeline, "timeline", "timeline.csv",
     [](const Sinks &s) { return s.timeline.numSamples() != 0; },
     [](const Sinks &s) { return s.timeline.csv(); },
     [](Sinks &s, const Sinks *like) {
         s.timeline.enable(like ? like->timeline.interval() : 0);
     },
     [](Sinks &dst, const Sinks &shard) {
         dst.timeline.merge(shard.timeline);
     }},
    {probe::Critpath, "critpath", "critpath.json",
     [](const Sinks &s) { return s.critpath.hasData(); },
     [](const Sinks &s) { return s.critpath.perfettoJson(); },
     [](Sinks &s, const Sinks *) { s.critpath.enable(); },
     [](Sinks &dst, const Sinks &shard) {
         dst.critpath.merge(shard.critpath);
     }},
    {probe::Events, "events", "events.jsonl",
     [](const Sinks &s) { return s.events.recorded() != 0; },
     [](const Sinks &s) { return s.events.jsonl(); },
     [](Sinks &s, const Sinks *like) {
         s.events.enable(like ? like->events.capacity()
                              : EventLog::defaultCapacity);
     },
     [](Sinks &dst, const Sinks &shard) {
         dst.events.merge(shard.events);
     }},
};

std::string
trimmed(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

} // namespace

uint32_t
Sinks::on() const
{
    return (trace.isOn() ? probe::Trace : 0) |
           (timeline.isOn() ? probe::Timeline : 0) |
           (critpath.isOn() ? probe::Critpath : 0) |
           (events.isOn() ? probe::Events : 0);
}

uint32_t
parseSinks(const std::string &list)
{
    uint32_t bits = 0;
    size_t pos = 0;
    while (pos <= list.size()) {
        size_t comma = list.find(',', pos);
        if (comma == std::string::npos)
            comma = list.size();
        std::string name = trimmed(list.substr(pos, comma - pos));
        pos = comma + 1;
        if (name.empty() || name == "0")
            continue;
        const Sink *hit = nullptr;
        for (const Sink &k : sinkTable)
            if (name == k.name)
                hit = &k;
        if (hit)
            bits |= hit->bit;
        else
            warn("obs: ignoring unknown sink '%s' (known: trace, "
                 "timeline, critpath, events)",
                 name.c_str());
    }
    return bits;
}

Spec
readEnvSpec()
{
    Spec s;
    if (const char *v = std::getenv("SPECRT_OBS"))
        s.sinks = parseSinks(v);
    if (const char *d = std::getenv("SPECRT_OBS_DIR"))
        s.dir = d;
    return s;
}

const Spec &
envSpec()
{
    static const Spec spec = readEnvSpec();
    return spec;
}

void
apply(SimContext &ctx, const Spec &spec)
{
    ctx.obsConfigured = true;
    ctx.obsDir = spec.dir;
    for (const Sink &k : sinkTable)
        if (spec.sinks & k.bit)
            k.enable(ctx.sinks, nullptr);
}

void
applyEnv()
{
    SimContext &ctx = SimContext::current();
    if (!ctx.obsConfigured)
        apply(ctx, envSpec());
}

bool
exportTo(const Sinks &s, const std::string &dir, std::FILE *log)
{
    // One exporter at a time: contexts dying concurrently (campaign
    // jobs under SPECRT_OBS) must never interleave two exports in
    // one file; the last one to finish owns it.
    static std::mutex exportMutex;
    std::lock_guard<std::mutex> lock(exportMutex);
    bool ok = true;
    uint32_t on = s.on();
    for (const Sink &k : sinkTable) {
        if (!(on & k.bit) || !k.hasData(s))
            continue;
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        std::string path = dir + "/" + k.file;
        std::string text = k.render(s);
        std::FILE *f = std::fopen(path.c_str(), "wb");
        bool wrote = f && std::fwrite(text.data(), 1, text.size(), f) ==
                              text.size();
        if (f && std::fclose(f) != 0)
            wrote = false;
        std::fprintf(log, "[obs] %s %s\n",
                     wrote ? "wrote" : "failed to write", path.c_str());
        ok &= wrote;
    }
    return ok;
}

void
fanOut(SimContext &job, const SimContext &parent)
{
    job.obsConfigured = true;
    uint32_t on = parent.sinks.on();
    for (const Sink &k : sinkTable)
        if (k.merge && (on & k.bit))
            k.enable(job.sinks, &parent.sinks);
}

void
merge(Sinks &dst, const Sinks &shard)
{
    uint32_t on = dst.on();
    for (const Sink &k : sinkTable)
        if (k.merge && (on & k.bit))
            k.merge(dst, shard);
}

} // namespace obs
} // namespace specrt
