/**
 * @file
 * Unified run report, cross-run differ and perf gate: the campaign
 * flight recorder's third stage.
 *
 * renderReport() fuses a run set's totals (counters, headline
 * metrics, the StatGroup snapshot) with the sinks' summaries -- the
 * critical-path recorder's cost totals and dominant chain, the
 * timeline's and the event log's -- into one deterministic
 * report.json -- same (config, seed, binary) in, byte-
 * identical bytes out, independent of --jobs. A bench record in
 * BENCH_results.json is the same document plus a "host" object (wall
 * time, ticks/s, peak RSS, exit code); --report-out leaves it out, so
 * the report stays simulation-deterministic.
 *
 * diff() compares two parsed reports, classifying every changed key
 * as a regression, an improvement, or a neutral change by the one
 * per-key direction rule, keyDirection() (stall cycles up =
 * regression, speedup up = improvement, ...). gate() judges an array
 * of bench records against bench/baseline.json: the CI perf gate.
 *
 * Consumers: the bench harness (the record and --report-out),
 * examples/report_diff (the one differ and the gate; tests/data pins
 * its Markdown), and the CI bench-smoke job.
 */

#ifndef SPECRT_OBS_REPORT_HH
#define SPECRT_OBS_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"

namespace specrt
{

namespace obs
{

struct Sinks;

/**
 * What a report sums over its runs. bench::Telemetry is one: per bench
 * process, and per runJobs() job, merged in job-id order.
 */
struct RunTotals
{
    uint64_t simTicks = 0;
    uint64_t eventsFired = 0;
    uint64_t runs = 0;
    /** Runs that died of injected infrastructure faults. */
    uint64_t infraFailedRuns = 0;
    /** Bench-specific headline numbers, in first-recorded order. */
    std::vector<std::pair<std::string, double>> metrics;
    /** Counters of the last machine snapshotted. */
    StatSnapshot stats;

    /** Set metric @p key, overwriting a same-keyed one. */
    void metric(const std::string &key, double value);

    /**
     * Fold @p shard in: counters sum, shard metrics
     * overwrite same-keyed ones, a non-empty shard stats snapshot
     * replaces the current one ("last machine").
     */
    void merge(const RunTotals &shard);
};

/** Everything renderReport() fuses into one report.json. */
struct ReportInputs
{
    /** Run name (bench name, campaign label). */
    std::string name;
    std::string gitSha;
    /** Hex MachineConfig fingerprint. */
    std::string configFingerprint;
    uint64_t baseSeed = 0;

    /** The runs' totals; null renders zeros. */
    const RunTotals *totals = nullptr;

    /**
     * The cost, critpath, timeline and events sections' source; null
     * (or a sink that recorded nothing) renders zeros.
     */
    const Sinks *sinks = nullptr;

    /**
     * Host-side figures, rendered as the last member, "host" (bench
     * records only). Empty leaves the member out.
     */
    std::vector<std::pair<std::string, double>> host;
};

/** Render the deterministic report JSON (field order fixed). */
std::string renderReport(const ReportInputs &in);

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
 * Parse @p json (any JSON value, not just reports) into @p out.
 * False + @p err on malformed input.
 */
bool parseReport(const std::string &json, RunReport &out,
                 std::string &err);

/** parseReport() on the contents of @p path. */
bool loadReport(const std::string &path, RunReport &out,
                std::string &err);

/**
 * Split a parsed JSON array into its elements ("[i].key" becomes
 * element i's "key"). False when @p flat is not an array.
 */
bool splitArray(const RunReport &flat, std::vector<RunReport> &out);

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

// --- perf gate --------------------------------------------------------

/** The perf gate's verdict on a set of bench records. */
struct GateResult
{
    /**
     * Markdown table, one row per check, failed exit code, skipped
     * bench or baselined bench without a record, then the verdict
     * line.
     */
    std::string markdown;
    /**
     * Rate and floor checks made (exit codes, skips and missing
     * records excluded).
     */
    size_t comparisons = 0;
    size_t failures = 0;
};

/**
 * Judge bench @p records (latest per "name") against @p baseline
 * (bench/baseline.json entries, keyed by "bench"). Per bench: a
 * nonzero host.exit_code fails; a bench without a baseline entry is
 * skipped; a nonzero baseline ticks_per_sec bounds host.ticks_per_sec
 * at (1 - @p tolerance) x baseline in the key's direction; each
 * min_<m> entry is an absolute floor on metrics.<m>, and a missing
 * metric fails. A baseline entry without a record fails. Every other
 * key is informational.
 */
GateResult gate(const std::vector<RunReport> &baseline,
                const std::vector<RunReport> &records, double tolerance);

/**
 * A new baseline.json from @p records (latest per "name", sorted):
 * each bench's ticks_per_sec and events_per_sec, and min_<m> =
 * round(0.8 x m, 3) for every *_speedup metric not named timeline_*.
 */
std::string rebaseline(const std::vector<RunReport> &records);

} // namespace obs
} // namespace specrt

#endif // SPECRT_OBS_REPORT_HH
