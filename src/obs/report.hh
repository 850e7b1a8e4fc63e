/**
 * @file
 * Unified run report + cross-run differ: the campaign flight
 * recorder's third stage.
 *
 * A full evaluation run currently leaves its story scattered over
 * four artifacts: the StatGroup snapshot (BENCH_results.json), the
 * timeline CSV, the stall CostBreakdown, and the critical-path /
 * abort-attribution warn lines. renderReport() fuses them into one
 * deterministic report.json -- same (config, seed, binary) in, byte-
 * identical bytes out, independent of --jobs -- and diff() compares
 * two such reports, classifying every changed key as a regression,
 * an improvement, or a neutral change by a per-key direction rule
 * (stall cycles up = regression, speedup up = improvement, ...).
 *
 * The report deliberately contains only *simulation-deterministic*
 * data. Host-side figures (wall time, peak RSS) stay in
 * BENCH_results.json where the perf gate reads them.
 *
 * Consumers: bench --report-out, examples/report_diff (the one
 * differ; tests/data pins its Markdown), and the CI bench-smoke step
 * that self-diffs a report (must be empty) and checks `--jobs`
 * byte-identity.
 */

#ifndef SPECRT_OBS_REPORT_HH
#define SPECRT_OBS_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stall.hh"
#include "sim/stats.hh"

namespace specrt
{

namespace critpath
{
class Recorder;
}

namespace timeline
{
class Timeline;
}

namespace obs
{

class EventLog;

/** Everything renderReport() fuses into one report.json. */
struct ReportInputs
{
    /** Run name (bench name, campaign label). */
    std::string name;
    std::string gitSha;
    /** Hex MachineConfig fingerprint. */
    std::string configFingerprint;
    uint64_t baseSeed = 0;

    // Aggregate counters (bench::Telemetry or hand-filled).
    uint64_t simTicks = 0;
    uint64_t eventsFired = 0;
    uint64_t runs = 0;
    uint64_t infraFailedRuns = 0;
    std::vector<std::pair<std::string, double>> metrics;
    StatSnapshot stats;

    /** Aggregated stall/cost breakdown (all-zero when not profiled). */
    stall::CostBreakdown cost;

    // Optional deep sections (skipped when null / empty).
    const critpath::Recorder *critpath = nullptr;
    const timeline::Timeline *timeline = nullptr;
    const EventLog *events = nullptr;
};

/** Render the deterministic report JSON (field order fixed). */
std::string renderReport(const ReportInputs &in);

/** renderReport() to @p path; false on I/O failure. */
bool writeReport(const ReportInputs &in, const std::string &path);

// --- parsing ----------------------------------------------------------

/**
 * A parsed report, flattened to dotted keys ("cost.stalls.dir_queue",
 * "metrics.fig11_speedup", "events.counts.abort"). Numbers and bools
 * (0/1) land in `numbers`, strings in `strings`; array elements get
 * "[i]" suffixes; nulls are skipped.
 */
struct RunReport
{
    std::map<std::string, double> numbers;
    std::map<std::string, std::string> strings;
};

/**
 * Parse @p json (any JSON object, not just reports) into @p out.
 * False + @p err on malformed input.
 */
bool parseReport(const std::string &json, RunReport &out,
                 std::string &err);

/** parseReport() on the contents of @p path. */
bool loadReport(const std::string &path, RunReport &out,
                std::string &err);

// --- diffing ----------------------------------------------------------

struct DiffOptions
{
    /** Relative change below this is "equal" (numeric keys). */
    double tolerance = 0.02;
};

enum class DiffKind
{
    Changed,    ///< beyond tolerance, no direction rule (neutral)
    Improved,   ///< moved the good way per the direction rule
    Regressed,  ///< moved the bad way per the direction rule
    Added,      ///< key only in B
    Removed,    ///< key only in A
};

struct DiffRow
{
    std::string key;
    DiffKind kind = DiffKind::Changed;
    bool numeric = true;
    double a = 0, b = 0;
    /** String values when !numeric. */
    std::string sa, sb;
};

struct DiffResult
{
    /** Non-equal keys only, in sorted key order. */
    std::vector<DiffRow> rows;
    /** Keys present in both reports. */
    size_t compared = 0;
    size_t regressions = 0;
    size_t improvements = 0;

    bool identical() const { return rows.empty(); }
};

/**
 * Which way is "better" for @p key: -1 lower-better (stall cycles,
 * aborts, failures, mem_*), +1 higher-better (speedup metrics,
 * ticks_per_sec), 0 neutral.
 */
int keyDirection(const std::string &key);

/** Compare two parsed reports (keys sorted; informational keys skipped). */
DiffResult diff(const RunReport &a, const RunReport &b,
                const DiffOptions &opt = {});

/**
 * Render @p d as a Markdown table ("| key | A | B | delta | status |")
 * with a summary trailer; "no differences" prose when identical.
 */
std::string diffMarkdown(const DiffResult &d, const std::string &nameA,
                         const std::string &nameB);

} // namespace obs
} // namespace specrt

#endif // SPECRT_OBS_REPORT_HH
