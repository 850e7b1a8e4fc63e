/**
 * @file
 * Simulation-campaign runner: fan a matrix of independent
 * single-threaded simulator jobs (config x seed points of a torture
 * grid, figure sweep, or bench ablation) across host threads.
 *
 * Each job runs inside its own freshly constructed SimContext
 * (sim/sim_context.hh), activated on the worker thread for the job's
 * duration, so jobs share no mutable sim state: separate log sinks,
 * separate trace rings, separate RNG streams. The simulator itself
 * stays single-threaded; only *instances* run concurrently.
 *
 * Scheduling: the workers share one next-job counter, and each takes
 * the lowest job id not yet started until none is left. Jobs are
 * whole simulations, so the counter's contention is negligible, and
 * jobs never spawn jobs, so a worker may exit once the counter passes
 * the last id.
 *
 * Determinism: a job's behavior depends only on (baseSeed, job id) --
 * jobSeed() derives its context seed -- never on which worker ran it
 * or in what order. Outcomes (and any per-job result shards the
 * caller keeps) are indexed by job id, so aggregation in id order is
 * byte-identical between a serial (jobs=1) and a parallel run, and a
 * single failed job can be re-run alone from its id.
 *
 * Failure isolation: each job's context has throw-on-fatal set, and
 * FatalError / std::exception escaping the job is captured into its
 * JobOutcome instead of killing the campaign. gtest assertions must
 * NOT be used inside jobs (they are not thread-safe off the main
 * thread); record errors and assert on the outcomes afterwards.
 */

#ifndef SPECRT_SIM_CAMPAIGN_HH
#define SPECRT_SIM_CAMPAIGN_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace specrt
{

class SimContext;

namespace campaign
{

/**
 * Live aggregate figures a caller can contribute to the progress
 * snapshot (see Options::progressLive): simulated ticks completed so
 * far and the current hot-directory line from the PR-5 heatmap. The
 * callback runs on the publisher thread, so it must synchronize with
 * the jobs itself (bench::runJobs keeps both behind a mutex).
 */
struct ProgressLive
{
    uint64_t simTicks = 0;
    std::string hot;
};

/** How to run a campaign. */
struct Options
{
    /**
     * Worker threads. 0 = defaultJobs(); 1 = run every job inline on
     * the calling thread (still one fresh SimContext per job, so
     * results match a parallel run exactly).
     */
    unsigned jobs = 0;

    /** Base seed; job i's context is seeded with jobSeed(baseSeed, i). */
    uint64_t baseSeed = 0;

    // --- live progress streaming --------------------------------------

    /**
     * When non-empty, a publisher thread periodically writes a JSON
     * status snapshot (per-job state tallies, throughput, ETA,
     * failures so far) to this path. Writes are atomic: the snapshot
     * lands in "<path>.tmp" and is renamed over the target only once
     * fully written (obs::writeFile), so a tailer
     * (scripts/specrt_top.py) never reads a torn file. The
     * final snapshot ("done": true) is written when the campaign
     * returns. Observability only: never affects job results.
     */
    std::string progressPath;

    /** Snapshot period for progressPath (clamped to >= 10). */
    unsigned progressIntervalMs = 500;

    /**
     * Optional aggregate sampler folded into each snapshot (runs on
     * the publisher thread; must be thread-safe).
     */
    std::function<ProgressLive()> progressLive;
};

/** What happened to one job. */
struct JobOutcome
{
    size_t id = 0;
    bool ok = false;
    /** Failure description when !ok ("" otherwise). */
    std::string error;
    /** The job context's seed (jobSeed(baseSeed, id)). */
    uint64_t seed = 0;
    /**
     * Hex fingerprint of the last MachineConfig the job ran ("" if
     * the job never reached a LoopExecutor). With the seed, a
     * failure line is directly replayable.
     */
    std::string configFingerprint;
};

/** True when every outcome is ok. */
bool allOk(const std::vector<JobOutcome> &outcomes);

/**
 * One line per failed outcome, each naming the job's seed and (when
 * known) config fingerprint so it is directly replayable:
 * "job 3 (seed 0x1a2b, config 00ffee...): <error>; job 7 ...".
 * "" when every job passed.
 */
std::string describeFailures(const std::vector<JobOutcome> &outcomes);

/**
 * Worker count used when Options::jobs is 0: the SPECRT_JOBS
 * environment variable if set to a positive integer, else
 * std::thread::hardware_concurrency() (minimum 1).
 */
unsigned defaultJobs();

/** The context seed of job @p id under @p base_seed. */
uint64_t jobSeed(uint64_t base_seed, size_t id);

/**
 * One job: runs with @p ctx current on the calling worker thread.
 * The same fn is called for every job; it dispatches on @p id (e.g.
 * indexes a config x seed matrix) and writes results into
 * caller-owned storage slot @p id.
 */
using JobFn = std::function<void(size_t id, SimContext &ctx)>;

/**
 * Run jobs 0..n-1, blocking until all finish. Outcomes are returned
 * in job-id order. Throws only on setup failure (thread creation);
 * a job's fatal error or exception lands in its outcome.
 */
std::vector<JobOutcome> run(size_t n, const JobFn &fn,
                            const Options &opts = {});

} // namespace campaign
} // namespace specrt

#endif // SPECRT_SIM_CAMPAIGN_HH
