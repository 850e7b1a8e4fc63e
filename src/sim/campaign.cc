#include "sim/campaign.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/event_log.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/sim_context.hh"

namespace specrt
{
namespace campaign
{

namespace
{

/** Per-job state byte the progress publisher samples. */
enum JobState : uint8_t
{
    JobPending = 0,
    JobRunning = 1,
    JobOk = 2,
    JobFailed = 3,
};

void
runOneJob(size_t id, const JobFn &fn, const Options &opts,
          JobOutcome &out, std::atomic<uint8_t> &state)
{
    out.id = id;
    out.seed = jobSeed(opts.baseSeed, id);
    state.store(JobRunning, std::memory_order_relaxed);
    SimContext ctx(out.seed);
    {
        ScopedSimContext active(ctx);
        ctx.logThrowOnFatal = true;
        try {
            fn(id, ctx);
            out.ok = true;
        } catch (const FatalError &e) {
            out.error =
                e.message.empty() ? std::string("fatal error") : e.message;
        } catch (const std::exception &e) {
            out.error = e.what();
        } catch (...) {
            out.error = "unknown exception";
        }
        // Even a failed job reports the config it ran (set by
        // LoopExecutor::run): the describeFailures line must be
        // replayable.
        out.configFingerprint = ctx.configFingerprint;
    }
    state.store(out.ok ? JobOk : JobFailed, std::memory_order_relaxed);
}

/**
 * Publishes the campaign's status snapshot to Options::progressPath
 * every progressIntervalMs until stopped, then once more with
 * "done": true. Snapshots are written to "<path>.tmp" and renamed
 * into place so tailers never observe a torn file.
 */
class ProgressPublisher
{
  public:
    ProgressPublisher(const Options &opts, size_t n,
                      const std::atomic<uint8_t> *states)
        : opts(opts), n(n), states(states),
          start(std::chrono::steady_clock::now())
    {
        if (opts.progressPath.empty())
            return;
        publisher = std::thread([this] { loop(); });
    }

    ~ProgressPublisher()
    {
        if (!publisher.joinable())
            return;
        {
            std::lock_guard<std::mutex> guard(mtx);
            stopping = true;
        }
        cv.notify_all();
        publisher.join();
        publish(true);
    }

    ProgressPublisher(const ProgressPublisher &) = delete;
    ProgressPublisher &operator=(const ProgressPublisher &) = delete;

  private:
    void
    loop()
    {
        auto period = std::chrono::milliseconds(
            opts.progressIntervalMs < 10 ? 10
                                         : opts.progressIntervalMs);
        std::unique_lock<std::mutex> lock(mtx);
        while (!stopping) {
            cv.wait_for(lock, period);
            if (stopping)
                return;
            lock.unlock();
            publish(false);
            lock.lock();
        }
    }

    void
    publish(bool done)
    {
        size_t running = 0, ok = 0, failed = 0;
        std::string runningIds, failedIds;
        size_t runningListed = 0, failedListed = 0;
        constexpr size_t maxListed = 32;
        for (size_t i = 0; i < n; ++i) {
            uint8_t s = states[i].load(std::memory_order_relaxed);
            if (s == JobRunning) {
                ++running;
                if (runningListed++ < maxListed) {
                    if (!runningIds.empty())
                        runningIds += ",";
                    runningIds += std::to_string(i);
                }
            } else if (s == JobOk) {
                ++ok;
            } else if (s == JobFailed) {
                ++failed;
                if (failedListed++ < maxListed) {
                    if (!failedIds.empty())
                        failedIds += ",";
                    failedIds += std::to_string(i);
                }
            }
        }
        size_t finished = ok + failed;
        double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        double rate = elapsed > 0
                          ? static_cast<double>(finished) / elapsed
                          : 0.0;
        double eta = rate > 0
                         ? static_cast<double>(n - finished) / rate
                         : -1.0;

        ProgressLive live;
        if (opts.progressLive)
            live = opts.progressLive();
        double tps = elapsed > 0
                         ? static_cast<double>(live.simTicks) / elapsed
                         : 0.0;

        std::ostringstream os;
        os << "{\n"
           << "  \"schema\": 1,\n"
           << "  \"done\": " << (done ? "true" : "false") << ",\n"
           << "  \"total\": " << n << ",\n"
           << "  \"pending\": " << (n - running - finished) << ",\n"
           << "  \"running\": " << running << ",\n"
           << "  \"ok\": " << ok << ",\n"
           << "  \"failed\": " << failed << ",\n"
           << "  \"elapsed_s\": " << obs::jsonNumber(elapsed) << ",\n"
           << "  \"jobs_per_sec\": " << obs::jsonNumber(rate) << ",\n"
           << "  \"eta_s\": " << obs::jsonNumber(eta) << ",\n"
           << "  \"sim_ticks\": " << live.simTicks << ",\n"
           << "  \"ticks_per_sec\": " << obs::jsonNumber(tps) << ",\n"
           << "  \"hot\": \"" << obs::jsonEscape(live.hot) << "\",\n"
           << "  \"running_jobs\": [" << runningIds << "],\n"
           << "  \"failed_jobs\": [" << failedIds << "]\n"
           << "}\n";

        // A snapshot that cannot be written is skipped; the next
        // one tries again.
        obs::writeFile(opts.progressPath, os.str(), true);
    }

    const Options &opts;
    size_t n;
    const std::atomic<uint8_t> *states;
    std::chrono::steady_clock::time_point start;
    std::mutex mtx;
    std::condition_variable cv;
    bool stopping = false;
    std::thread publisher;
};

} // namespace

bool
allOk(const std::vector<JobOutcome> &outcomes)
{
    for (const JobOutcome &o : outcomes) {
        if (!o.ok)
            return false;
    }
    return true;
}

std::string
describeFailures(const std::vector<JobOutcome> &outcomes)
{
    std::ostringstream os;
    bool first = true;
    for (const JobOutcome &o : outcomes) {
        if (o.ok)
            continue;
        if (!first)
            os << "; ";
        first = false;
        os << "job " << o.id << " (seed 0x" << std::hex << o.seed
           << std::dec;
        if (!o.configFingerprint.empty())
            os << ", config " << o.configFingerprint;
        os << "): " << o.error;
    }
    return os.str();
}

unsigned
defaultJobs()
{
    if (const char *env = std::getenv("SPECRT_JOBS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end && *end == '\0' && v > 0)
            return static_cast<unsigned>(v);
        warn("ignoring SPECRT_JOBS='%s' (want a positive integer)", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

uint64_t
jobSeed(uint64_t base_seed, size_t id)
{
    return deriveSeed(base_seed, "job:" + std::to_string(id));
}

std::vector<JobOutcome>
run(size_t n, const JobFn &fn, const Options &opts)
{
    std::vector<JobOutcome> outcomes(n);
    if (n == 0)
        return outcomes;

    unsigned jobs = opts.jobs ? opts.jobs : defaultJobs();
    if (jobs > n)
        jobs = static_cast<unsigned>(n);

    // Value-initialized (JobPending) per-job state bytes, shared by
    // the workers and the progress publisher.
    std::unique_ptr<std::atomic<uint8_t>[]> states(
        new std::atomic<uint8_t>[n]());
    ProgressPublisher progress(opts, n, states.get());

    // Jobs are whole simulations, so one shared next-job counter
    // balances them: each worker takes the lowest id not yet started.
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t id; (id = next.fetch_add(1)) < n;)
            runOneJob(id, fn, opts, outcomes[id], states[id]);
    };
    if (jobs == 1) {
        // Inline, but through the same per-job context machinery as
        // the parallel path so results are identical.
        work();
    } else {
        std::vector<std::jthread> workers;
        for (unsigned w = 0; w < jobs; ++w)
            workers.emplace_back(work);
    } // joins every worker
    return outcomes;
}

} // namespace campaign
} // namespace specrt
