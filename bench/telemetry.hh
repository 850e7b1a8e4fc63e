/**
 * @file
 * Machine-readable benchmark telemetry.
 *
 * Every bench binary runs through benchMain() (see the
 * SPECRT_BENCH_MAIN macro), which times the bench body, accumulates
 * simulated work in the Telemetry singleton, and appends one record
 * to BENCH_results.json. The record is the run's unified report
 * (obs/report.hh: totals, metrics, stats snapshot, cost, critpath,
 * timeline and event summaries, config fingerprint, git SHA) plus a
 * "host" object with the figures only a timed run has: quick,
 * exit_code, wall_ms, ticks_per_sec, events_per_sec and
 * mem_peak_rss_kb (getrusage). examples/report_diff gates those
 * records against bench/baseline.json in CI.
 *
 * Flags understood by every bench binary:
 *   --quick       CI smoke sizing (benches consult bench::quick())
 *   --out <path>  telemetry file (default $SPECRT_BENCH_OUT or
 *                 ./BENCH_results.json)
 *   --no-json     skip writing telemetry
 *   --jobs <n>    campaign worker threads for benches that fan out
 *                 through bench::runJobs() (0 = all host cores;
 *                 default 1 so the perf gate's ticks/s keeps
 *                 measuring a single simulator instance)
 *   --obs <sinks>   record these observability sinks: a comma list
 *                 of trace, timeline, critpath, events (default
 *                 $SPECRT_OBS; grammar in obs/sinks.hh). Jobs fanned
 *                 out via runJobs() record the timeline, critpath
 *                 and events sinks into per-job shards merged in
 *                 job-id order, so the files are byte-identical
 *                 whatever --jobs was. The record's critpath,
 *                 timeline and events sections summarize them.
 *   --obs-dir <dir>  write each recorded sink to <dir>/trace.json,
 *                 timeline.csv, critpath.json, events.jsonl
 *                 (default $SPECRT_OBS_DIR; none = record only).
 *   --report-out <path>  write the unified run report -- the record
 *                 without its host object -- to <path>; implies the
 *                 event log so the report's events section is
 *                 populated.
 *   --status-out <path>  stream live campaign progress snapshots
 *                 (sim/campaign.hh progressPath) to <path> while
 *                 runJobs() is in flight; tail with
 *                 scripts/specrt_top.py.
 *   --golden-out <path>  write the simulated outputs of every run
 *                 that went through runMachine() to <path>, one
 *                 JSON object per run (harness.hh goldenRow()); the
 *                 golden ctests compare it with tests/golden/.
 *
 * Every file is written with obs::writeFile, so a full disk fails
 * the bench instead of leaving a short file behind.
 *
 * Concurrency: telemetry() is the PROCESS accumulator on the main
 * thread, but campaign jobs run on worker threads -- there it
 * resolves to the job's own shard (installed by ScopedTelemetry), and
 * runJobs() merges the shards into the process accumulator in job-id
 * order, so the record is identical whatever --jobs was.
 */

#ifndef SPECRT_BENCH_TELEMETRY_HH
#define SPECRT_BENCH_TELEMETRY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hh"
#include "sim/campaign.hh"

namespace specrt
{
struct RunResult;
}

namespace specrt::bench
{

/** True when the binary runs in --quick (CI smoke) mode. */
bool quick();

/** True under --golden-out: runMachine() records each run's outputs. */
bool goldenRecording();

/** Pick @p full normally, @p q under --quick. */
template <typename T>
T
quickPick(T full, T q)
{
    return quick() ? q : full;
}

/**
 * Accumulator behind the record (process-wide or per-job): the
 * report's totals, which benchMain() renders as they are, plus the
 * golden runs.
 */
class Telemetry : public obs::RunTotals
{
  public:
    /** Fold one simulator run into the totals. */
    void recordRun(const RunResult &r);

    /** Capture @p g's counters (replaces the previous snapshot). */
    void snapshotStats(const StatGroup &g);

    /**
     * Fold a per-job shard in: obs::RunTotals::merge() (with shards
     * merged in job-id order, the highest job id's stats snapshot
     * wins), and golden runs append.
     */
    void merge(const Telemetry &shard);

    /**
     * Under --golden-out: each run's simulated outputs, one JSON
     * member list per run, in run order (shards append in job-id
     * order, so the list does not depend on --jobs).
     */
    std::vector<std::string> golden;
};

/**
 * The calling thread's telemetry accumulator: the process-wide one
 * normally, the job's shard inside a ScopedTelemetry scope (bench
 * bodies and harness helpers call this and work unchanged under
 * runJobs()).
 */
Telemetry &telemetry();

/** RAII redirect of this thread's telemetry() to @p shard. */
class ScopedTelemetry
{
  public:
    explicit ScopedTelemetry(Telemetry &shard);
    ~ScopedTelemetry();

    ScopedTelemetry(const ScopedTelemetry &) = delete;
    ScopedTelemetry &operator=(const ScopedTelemetry &) = delete;

  private:
    Telemetry *prev;
};

/** Campaign worker threads resolved from --jobs / SPECRT_JOBS (>= 1). */
unsigned jobs();

/**
 * Override the worker count benchMain() parsed from --jobs. For
 * tests that re-run the same bench body at different fan-outs and
 * assert byte-identical aggregation; bench bodies never call this.
 */
void setJobs(unsigned n);

/**
 * Fan jobs 0..n-1 across jobs() workers via campaign::run. Each job
 * gets a private Telemetry shard (telemetry() resolves to it inside
 * the job); shards are merged into the process accumulator in job-id
 * order after all jobs finish, so the record does not depend on
 * --jobs. Job failures are reported in the returned outcomes, not
 * thrown.
 */
std::vector<campaign::JobOutcome> runJobs(size_t n,
                                          const campaign::JobFn &fn,
                                          uint64_t base_seed = 0);

/**
 * Entry point shared by all bench binaries: parses the telemetry
 * flags, runs @p body, and appends the record (unless --no-json).
 * Returns the bench's exit code; a file that could not be written
 * makes it nonzero.
 */
int benchMain(int argc, char **argv, const char *name, int (*body)());

/**
 * Declare the bench body; benchMain() provides main(). Usage:
 *
 *   SPECRT_BENCH_MAIN(fig11_speedup)
 *   {
 *       ... // return an exit code
 *   }
 */
#define SPECRT_BENCH_MAIN(name)                                         \
    static int specrtBenchBody();                                       \
    int                                                                 \
    main(int argc, char **argv)                                         \
    {                                                                   \
        return ::specrt::bench::benchMain(argc, argv, #name,            \
                                          &specrtBenchBody);            \
    }                                                                   \
    static int specrtBenchBody()

} // namespace specrt::bench

#endif // SPECRT_BENCH_TELEMETRY_HH
