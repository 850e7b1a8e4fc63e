#include "telemetry.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>

#include "core/loop_exec.hh"
#include "obs/report.hh"
#include "obs/sinks.hh"
#include "sim/arena.hh"
#include "sim/config.hh"
#include "sim/sim_context.hh"

#ifndef SPECRT_GIT_SHA
#define SPECRT_GIT_SHA "unknown"
#endif

namespace specrt::bench
{

using obs::jsonEscape;

namespace
{

bool quickMode = false;

/** Resolved --golden-out path; empty = no golden recording. */
std::string goldenPath;

/** Resolved --jobs value (0 until benchMain parses flags). */
unsigned jobsCount = 1;

/** Resolved --status-out path; runJobs streams progress there. */
std::string statusPath;

/** Peak resident set size of this process, in KiB (0 if unknown). */
uint64_t
peakRssKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<uint64_t>(ru.ru_maxrss);
}

/** This thread's shard inside a ScopedTelemetry scope. */
thread_local Telemetry *tlsTelemetry = nullptr;

Telemetry &
processTelemetry()
{
    static Telemetry t;
    return t;
}

/**
 * Append JSON document @p record to the array in @p path, creating
 * the file (as a one-element array) when missing or unparsable. The
 * new array replaces the file only once it is fully written.
 */
bool
appendRecord(const std::string &path, const std::string &record)
{
    std::string head = "[";
    {
        std::ifstream is(path);
        std::ostringstream buf;
        buf << is.rdbuf();
        const std::string existing = buf.str();
        size_t end = existing.find_last_of(']');
        if (end != std::string::npos && existing.find('[') < end)
            head = existing.substr(0, end);
    }
    while (head.back() == '\n' || head.back() == ' ' ||
           head.back() == '\t' || head.back() == '\r')
        head.pop_back();
    return obs::writeFile(path,
                          head + (head.back() == '[' ? "\n" : ",\n") +
                              record + "]\n",
                          true);
}

} // namespace

bool
quick()
{
    return quickMode;
}

bool
goldenRecording()
{
    return !goldenPath.empty();
}

Telemetry &
telemetry()
{
    return tlsTelemetry ? *tlsTelemetry : processTelemetry();
}

ScopedTelemetry::ScopedTelemetry(Telemetry &shard) : prev(tlsTelemetry)
{
    tlsTelemetry = &shard;
}

ScopedTelemetry::~ScopedTelemetry()
{
    tlsTelemetry = prev;
}

unsigned
jobs()
{
    return jobsCount ? jobsCount : campaign::defaultJobs();
}

void
setJobs(unsigned n)
{
    jobsCount = n;
}

std::vector<campaign::JobOutcome>
runJobs(size_t n, const campaign::JobFn &fn, uint64_t base_seed)
{
    std::vector<Telemetry> shards(n);
    // The process context's sinks fan out to every job (obs::fanOut):
    // each job records into its own context, hands its recorders back
    // as a shard even when fn throws (a failed job's events are the
    // forensic record), and the shards merge below in job-id order,
    // so merged sink files do not depend on --jobs.
    SimContext &proc = SimContext::current();
    std::vector<obs::Sinks> sinkShards(n);

    // Live figures for the --status-out snapshot (publisher thread).
    std::mutex liveMtx;
    uint64_t liveTicks = 0;
    std::string liveHot;

    campaign::Options opts;
    opts.jobs = jobs();
    opts.baseSeed = base_seed;
    if (!statusPath.empty()) {
        opts.progressPath = statusPath;
        opts.progressLive = [&] {
            std::lock_guard<std::mutex> lock(liveMtx);
            return campaign::ProgressLive{liveTicks, liveHot};
        };
    }
    std::vector<campaign::JobOutcome> outcomes = campaign::run(
        n,
        [&](size_t id, SimContext &ctx) {
            ScopedTelemetry scoped(shards[id]);
            obs::fanOut(ctx, proc);
            struct Capture
            {
                SimContext &ctx;
                obs::Sinks &dst;
                ~Capture() { dst = std::move(ctx.sinks); }
            } capture{ctx, sinkShards[id]};
            obs::jobBegin(id, ctx.baseSeed);
            fn(id, ctx);
            std::lock_guard<std::mutex> lock(liveMtx);
            liveTicks += shards[id].simTicks;
            if (timeline::enabled())
                liveHot = timeline::current().hotSummary(1);
        },
        opts);
    Telemetry &t = processTelemetry();
    for (size_t id = 0; id < n; ++id) { // job-id order: deterministic
        t.merge(shards[id]);
        obs::merge(proc.sinks, sinkShards[id]);
        obs::jobEnd(outcomes[id].id, outcomes[id].ok,
                    outcomes[id].error);
    }
    return outcomes;
}

void
Telemetry::recordRun(const RunResult &r)
{
    simTicks += r.totalTicks;
    eventsFired += r.eventsFired;
    ++runs;
    if (r.infraFailed)
        ++infraFailedRuns;
    addCost(r.cost);
}

void
Telemetry::snapshotStats(const StatGroup &g)
{
    stats.clear();
    g.snapshot(stats);
}

void
Telemetry::merge(const Telemetry &shard)
{
    RunTotals::merge(shard);
    golden.insert(golden.end(), shard.golden.begin(),
                  shard.golden.end());
}

namespace
{

/** Write the golden runs: one object per line, so diffs are per run. */
bool
writeGolden(const std::string &path, const char *name,
            const std::vector<std::string> &runs)
{
    std::ostringstream os;
    os << "{\"bench\": \"" << jsonEscape(name) << "\", \"quick\": "
       << (quickMode ? "true" : "false") << ", \"runs\": [\n";
    for (size_t i = 0; i < runs.size(); ++i) {
        os << "{\"run\": " << i << ", " << runs[i] << "}"
           << (i + 1 < runs.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return obs::writeFile(path, os.str());
}

} // namespace

int
benchMain(int argc, char **argv, const char *name, int (*body)())
{
    const char *envOut = std::getenv("SPECRT_BENCH_OUT");
    std::string outPath = envOut ? envOut : "BENCH_results.json";
    // SPECRT_OBS / SPECRT_OBS_DIR are the defaults of --obs/--obs-dir.
    obs::Spec obsSpec = obs::envSpec();
    std::string reportPath;
    bool writeJson = true;

    // "--flag value" or "--flag=value" at argv[i]; advances i.
    auto value = [&](int &i, const char *flag, std::string &out) {
        std::string arg = argv[i];
        size_t len = std::strlen(flag);
        if (arg.compare(0, len, flag) != 0)
            return false;
        if (arg.size() == len && i + 1 < argc) {
            out = argv[++i];
            return true;
        }
        if (arg.size() > len && arg[len] == '=') {
            out = arg.substr(len + 1);
            return true;
        }
        return false;
    };

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string val;
        if (arg == "--quick") {
            quickMode = true;
        } else if (arg == "--no-json") {
            writeJson = false;
        } else if (value(i, "--out", outPath) ||
                   value(i, "--obs-dir", obsSpec.dir) ||
                   value(i, "--report-out", reportPath) ||
                   value(i, "--status-out", statusPath) ||
                   value(i, "--golden-out", goldenPath)) {
            // stored by value()
        } else if (value(i, "--obs", val)) {
            obsSpec.sinks = obs::parseSinks(val);
        } else if (value(i, "--jobs", val)) {
            char *end = nullptr;
            long v = std::strtol(val.c_str(), &end, 10);
            if (*end != '\0' || v < 0) {
                std::fprintf(stderr, "%s: bad --jobs value '%s'\n",
                             argv[0], val.c_str());
                return 2;
            }
            jobsCount = static_cast<unsigned>(v);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--quick] [--no-json] "
                        "[--out <path>] [--obs <sinks>] "
                        "[--obs-dir <dir>] [--report-out <path>] "
                        "[--status-out <path>] [--golden-out <path>] "
                        "[--jobs <n>]\n"
                        "  --obs        record these sinks (comma list "
                        "of trace, timeline, critpath, events; default "
                        "$SPECRT_OBS)\n"
                        "  --obs-dir    write each recorded sink to "
                        "<dir>/{trace.json,timeline.csv,critpath.json,"
                        "events.jsonl} (default $SPECRT_OBS_DIR; none "
                        "= record only)\n"
                        "  --report-out  write the unified run report "
                        "JSON to <path> (implies the event log)\n"
                        "  --status-out  stream live campaign "
                        "progress snapshots to <path> "
                        "(scripts/specrt_top.py tails it)\n"
                        "  --golden-out  write every run's simulated "
                        "outputs (ticks, verdict, stats and memory "
                        "hashes) to <path>\n"
                        "  --jobs       campaign worker threads "
                        "(0 = all host cores; default 1)\n",
                        argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], arg.c_str());
            return 2;
        }
    }

    // --report-out fills the report's events section. The bench
    // writes the sink files itself after the body (so a failed write
    // sets the exit code), not when the context dies.
    if (!reportPath.empty())
        obsSpec.sinks |= probe::Events;
    std::string obsDir = obsSpec.dir;
    obsSpec.dir.clear();
    SimContext &ctx = SimContext::current();
    obs::apply(ctx, obsSpec);

    auto t0 = std::chrono::steady_clock::now();
    int rc = body();
    auto t1 = std::chrono::steady_clock::now();

    const obs::Sinks &sinks = ctx.sinks;
    if (!obsDir.empty() && !obs::exportTo(sinks, obsDir, stdout) &&
        rc == 0)
        rc = 1;
    if (!goldenPath.empty() &&
        !writeGolden(goldenPath, name, telemetry().golden)) {
        std::fprintf(stderr, "%s: failed to write golden runs to %s\n",
                     name, goldenPath.c_str());
        if (rc == 0)
            rc = 1;
    }

    double wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    double wallS = wallMs / 1e3;

    Telemetry &t = telemetry();
    double tps = wallS > 0 ? static_cast<double>(t.simTicks) / wallS
                           : 0.0;
    double eps = wallS > 0
                     ? static_cast<double>(t.eventsFired) / wallS
                     : 0.0;

    obs::ReportInputs ri;
    ri.name = name;
    ri.gitSha = SPECRT_GIT_SHA;
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016" PRIx64,
                  MachineConfig{}.fingerprint());
    // The fingerprint of the machine the bench actually ran, when a
    // LoopExecutor published one (benches with custom configs).
    ri.configFingerprint =
        ctx.configFingerprint.empty() ? fp : ctx.configFingerprint;
    ri.baseSeed = ctx.baseSeed;
    ri.totals = &t;
    ri.sinks = &sinks;

    if (!reportPath.empty()) {
        if (obs::writeFile(reportPath, obs::renderReport(ri))) {
            std::printf("[report] wrote unified run report to %s\n",
                        reportPath.c_str());
        } else {
            std::fprintf(stderr,
                         "%s: failed to write report to %s\n",
                         name, reportPath.c_str());
            if (rc == 0)
                rc = 1;
        }
    }

    if (!writeJson)
        return rc;

    ri.host = {
        {"quick", quickMode ? 1.0 : 0.0},
        {"exit_code", static_cast<double>(rc)},
        {"wall_ms", wallMs},
        {"ticks_per_sec", tps},
        {"events_per_sec", eps},
        {"mem_peak_rss_kb", static_cast<double>(peakRssKb())},
        {"mem_arena_hwm_blocks",
         static_cast<double>(
             std::max(Arena::maxHighWater(), ctx.arenaHighWater()))},
    };
    if (!appendRecord(outPath, obs::renderReport(ri))) {
        std::fprintf(stderr, "%s: failed to write telemetry to %s\n",
                     name, outPath.c_str());
        return rc ? rc : 1;
    }
    std::printf("\n[telemetry] %s%s: %.0f ms wall, %" PRIu64
                " sim ticks, %.3g ticks/s, %" PRIu64
                " events -> %s\n",
                name, quickMode ? " (quick)" : "", wallMs, t.simTicks,
                tps, t.eventsFired, outPath.c_str());
    return rc;
}

} // namespace specrt::bench
