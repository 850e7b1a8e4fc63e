/**
 * @file
 * Tests for the simulation-campaign runner (sim/campaign.hh) and the
 * instance scoping underneath it (sim/sim_context.hh): every job
 * runs exactly once, per-job failure trapping, serial-vs-parallel
 * determinism of stats, trace, and timeline output, per-context RNG
 * streams, and log-sink isolation across concurrent contexts.
 *
 * Rule observed throughout: no gtest assertions inside campaign jobs
 * (they run on worker threads); jobs record into id-indexed slots and
 * the main thread asserts.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iomanip>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/loop_exec.hh"
#include "sim/campaign.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"
#include "sim/timeline.hh"
#include "sim/trace.hh"
#include "sim/trace_export.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/** Options pinned to a worker count (tests must not depend on the
 *  host's core count or SPECRT_JOBS). */
campaign::Options
withJobs(unsigned jobs, uint64_t base_seed = 0)
{
    campaign::Options o;
    o.jobs = jobs;
    o.baseSeed = base_seed;
    return o;
}

} // namespace

// --- seeds and RNG streams --------------------------------------------

TEST(CampaignSeed, JobSeedIsStablePerJobAndDistinct)
{
    EXPECT_EQ(campaign::jobSeed(1, 0), campaign::jobSeed(1, 0));
    EXPECT_NE(campaign::jobSeed(1, 0), campaign::jobSeed(1, 1));
    EXPECT_NE(campaign::jobSeed(1, 0), campaign::jobSeed(2, 0));
}

TEST(SimContextRng, NamedStreamsAreReproducibleAndIndependent)
{
    SimContext a(42);
    SimContext b(42);
    // Same (seed, name): same sequence.
    EXPECT_EQ(a.rng("sched").next(), b.rng("sched").next());
    EXPECT_EQ(a.rng("sched").next(), b.rng("sched").next());
    // Different names decorrelate.
    SimContext c(42);
    SimContext d(42);
    EXPECT_NE(c.rng("sched").next(), d.rng("fault").next());
    // reseed() rewinds every stream.
    SimContext e(42);
    uint64_t first = e.rng("x").next();
    e.rng("x").next();
    e.reseed(42);
    EXPECT_EQ(e.rng("x").next(), first);
}

// --- pool correctness -------------------------------------------------

TEST(CampaignPool, RunsEveryJobExactlyOnce)
{
    const size_t n = 37;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h = 0;
    auto outcomes = campaign::run(
        n, [&](size_t id, SimContext &) { ++hits[id]; }, withJobs(4));
    ASSERT_EQ(outcomes.size(), n);
    EXPECT_TRUE(campaign::allOk(outcomes));
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i], 1) << "job " << i;
        EXPECT_EQ(outcomes[i].id, i);
    }
}

TEST(CampaignPool, ZeroJobsIsANoOp)
{
    auto outcomes = campaign::run(
        0, [](size_t, SimContext &) { FAIL(); }, withJobs(2));
    EXPECT_TRUE(outcomes.empty());
}

TEST(CampaignPool, MoreWorkersThanJobsStillCompletes)
{
    std::vector<std::atomic<int>> hits(2);
    for (auto &h : hits)
        h = 0;
    auto outcomes = campaign::run(
        2, [&](size_t id, SimContext &) { ++hits[id]; }, withJobs(16));
    EXPECT_TRUE(campaign::allOk(outcomes));
    EXPECT_EQ(hits[0], 1);
    EXPECT_EQ(hits[1], 1);
}

TEST(CampaignPool, DefaultJobsHonorsTheEnvironment)
{
    setenv("SPECRT_JOBS", "3", 1);
    EXPECT_EQ(campaign::defaultJobs(), 3u);
    // Garbage falls back to the host's core count (with a warning we
    // swallow so the test log stays clean).
    setenv("SPECRT_JOBS", "banana", 1);
    LogSink old = setLogSink([](LogLevel, const std::string &) {});
    EXPECT_GE(campaign::defaultJobs(), 1u);
    setLogSink(old);
    unsetenv("SPECRT_JOBS");
    EXPECT_GE(campaign::defaultJobs(), 1u);
}

// --- failure isolation ------------------------------------------------

TEST(CampaignFailure, FatalInOneJobIsTrappedAndAttributed)
{
    auto outcomes = campaign::run(
        8,
        [](size_t id, SimContext &) {
            if (id == 3)
                fatal("job %zu went boom", id);
        },
        withJobs(4));
    EXPECT_FALSE(campaign::allOk(outcomes));
    for (size_t i = 0; i < outcomes.size(); ++i) {
        if (i == 3) {
            EXPECT_FALSE(outcomes[i].ok);
            EXPECT_NE(outcomes[i].error.find("boom"),
                      std::string::npos);
        } else {
            EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
        }
    }
    std::string report = campaign::describeFailures(outcomes);
    EXPECT_NE(report.find("job 3"), std::string::npos);
    EXPECT_NE(report.find("boom"), std::string::npos);
    // This thread's context is untouched by the jobs' throw-on-fatal.
    EXPECT_FALSE(SimContext::current().logThrowOnFatal);
}

TEST(CampaignFailure, ExceptionInAJobIsCaptured)
{
    auto outcomes = campaign::run(
        4,
        [](size_t id, SimContext &) {
            if (id == 1)
                throw std::runtime_error("kaput");
        },
        withJobs(2));
    EXPECT_FALSE(outcomes[1].ok);
    EXPECT_EQ(outcomes[1].error, "kaput");
    EXPECT_TRUE(outcomes[0].ok);
    EXPECT_TRUE(outcomes[2].ok);
    EXPECT_TRUE(outcomes[3].ok);
}

// --- determinism: serial vs parallel ----------------------------------

namespace
{

/**
 * One campaign job for the determinism test: run a seeded random
 * workload under HW speculation with this context's trace ring and
 * metric timeline on, and render everything observable -- verdict,
 * final memory, the machine's full stats snapshot, the trace
 * summary, and the timeline CSV + hot summary -- into one string.
 * Any dependence on worker identity or scheduling order shows up as
 * a byte difference between campaign configurations.
 */
std::string
determinismJob(size_t id)
{
    trace::buffer().enable(1u << 12);
    timeline::current().enable(200);
    RandomLoopParams rp{24, 48, 3, 0.5, 48,
                        (id % 2) ? TestType::Priv : TestType::NonPriv,
                        2000 + id};
    RandomLoop loop(rp);
    MachineConfig cfg;
    cfg.numProcs = 4;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor exec(cfg, loop, xc);
    RunResult r = exec.run();

    std::ostringstream os;
    os << "job " << id << " passed=" << r.passed
       << " iters=" << r.itersExecuted << " ticks=" << r.totalTicks
       << "\nmem:";
    const Region *a = exec.sharedRegion(0);
    for (uint64_t e = 0; e < a->numElems(); ++e)
        os << ' ' << exec.machine().memory().read(a->elemAddr(e), 4);
    StatSnapshot snap;
    exec.machine().snapshot(snap);
    os << "\nstats:\n";
    for (const auto &kv : snap)
        os << "  " << kv.first << " = " << std::setprecision(17)
           << kv.second << "\n";
    os << "trace: "
       << std::hash<std::string>{}(trace::chromeTraceJson(trace::buffer()))
       << "\n";
    os << "timeline:\n" << timeline::current().csv();
    os << timeline::current().hotSummary();
    return os.str();
}

} // namespace

TEST(CampaignDeterminism, SerialAndParallelRunsAreByteIdentical)
{
    const size_t n = 8;
    std::vector<std::string> serial(n), parallel(n);
    auto so = campaign::run(
        n,
        [&](size_t id, SimContext &) { serial[id] = determinismJob(id); },
        withJobs(1, 99));
    auto po = campaign::run(
        n,
        [&](size_t id, SimContext &) {
            parallel[id] = determinismJob(id);
        },
        withJobs(4, 99));
    ASSERT_TRUE(campaign::allOk(so)) << campaign::describeFailures(so);
    ASSERT_TRUE(campaign::allOk(po)) << campaign::describeFailures(po);
    for (size_t i = 0; i < n; ++i) {
        ASSERT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
    }
    // And re-running the parallel campaign reproduces itself.
    std::vector<std::string> again(n);
    campaign::run(
        n,
        [&](size_t id, SimContext &) { again[id] = determinismJob(id); },
        withJobs(4, 99));
    EXPECT_EQ(again, parallel);
}

// --- logging isolation across concurrent contexts ---------------------

TEST(CampaignLogging, ConcurrentContextsNeverShareSinks)
{
    // Two jobs pinned to two workers, each installing its own sink
    // and logging while (best-effort) overlapping with the other.
    // Every message must land in its own job's capture, intact.
    const int msgs = 200;
    std::vector<std::vector<std::string>> captured(2);
    std::atomic<int> arrived{0};
    auto outcomes = campaign::run(
        2,
        [&](size_t id, SimContext &) {
            setLogSink([&captured, id](LogLevel,
                                       const std::string &msg) {
                captured[id].push_back(msg);
            });
            ++arrived;
            // Wait (bounded) for the other job so the two contexts
            // really log concurrently when two workers exist.
            for (int spin = 0; arrived.load() < 2 && spin < 10000;
                 ++spin)
                std::this_thread::yield();
            for (int k = 0; k < msgs; ++k)
                warn("job %zu message %d", id, k);
        },
        withJobs(2));
    ASSERT_TRUE(campaign::allOk(outcomes))
        << campaign::describeFailures(outcomes);
    for (size_t id = 0; id < 2; ++id) {
        ASSERT_EQ(captured[id].size(), static_cast<size_t>(msgs))
            << "job " << id;
        for (int k = 0; k < msgs; ++k) {
            std::ostringstream want;
            want << "job " << id << " message " << k;
            EXPECT_EQ(captured[id][k], want.str());
        }
    }
    // The main thread's context never saw the jobs' sinks.
    EXPECT_FALSE(SimContext::current().logSink);
}

TEST(CampaignLogging, JobTraceRingsStayPrivate)
{
    // A job that traces must not leak records into the main thread's
    // ring, and vice versa.
    trace::buffer().disable();
    trace::buffer().clear();
    std::vector<uint64_t> recorded(3, 0);
    auto outcomes = campaign::run(
        3,
        [&](size_t id, SimContext &ctx) {
            trace::buffer().enable(64);
            trace::TraceRecord r;
            r.op = trace::TraceOp::IterBegin;
            for (size_t k = 0; k <= id; ++k)
                trace::buffer().emit(r);
            recorded[id] = ctx.sinks.trace.recorded();
        },
        withJobs(2));
    ASSERT_TRUE(campaign::allOk(outcomes));
    for (size_t id = 0; id < 3; ++id)
        EXPECT_EQ(recorded[id], id + 1);
    EXPECT_EQ(trace::buffer().recorded(), 0u);
    EXPECT_FALSE(trace::enabled());
}
