/**
 * @file
 * Tests for the bench telemetry aggregation layer (bench/telemetry.hh):
 * Telemetry fold semantics (counters sum, metrics overwrite by key,
 * stats last-nonempty-wins), the ScopedTelemetry
 * thread redirect, and the headline determinism contract -- runJobs()
 * aggregation (telemetry AND the merged event log) is byte-identical
 * whatever the worker count.
 *
 * Links bench_harness, not just specrt; registered with its own rule
 * in tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>

#include "core/loop_exec.hh"
#include "obs/event_log.hh"
#include "sim/sim_context.hh"
#include "telemetry.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/** Render every observable Telemetry field (full precision). */
std::string
renderTelemetry(const bench::Telemetry &t)
{
    std::ostringstream os;
    os << "ticks=" << t.simTicks << " events=" << t.eventsFired
       << " runs=" << t.runs << " infra=" << t.infraFailedRuns
       << "\n";
    for (const auto &kv : t.metrics)
        os << "metric " << kv.first << " = " << std::setprecision(17)
           << kv.second << "\n";
    for (const auto &kv : t.stats)
        os << "stat " << kv.first << " = " << std::setprecision(17)
           << kv.second << "\n";
    return os.str();
}

} // namespace

// --- fold semantics ---------------------------------------------------

TEST(TelemetryMerge, CountersSumMetricsOverwriteStatsReplace)
{
    bench::Telemetry a;
    a.simTicks = 100;
    a.eventsFired = 10;
    a.runs = 1;
    a.metric("shared", 1.0);
    a.metric("only_a", 7.0);
    a.stats.emplace_back("old.counter", 1.0);

    bench::Telemetry b;
    b.simTicks = 50;
    b.eventsFired = 5;
    b.runs = 2;
    b.infraFailedRuns = 1;
    b.metric("shared", 2.0);
    b.stats.emplace_back("new.counter", 9.0);

    a.merge(b);
    EXPECT_EQ(a.simTicks, 150u);
    EXPECT_EQ(a.eventsFired, 15u);
    EXPECT_EQ(a.runs, 3u);
    EXPECT_EQ(a.infraFailedRuns, 1u);
    // Same-keyed metric overwritten, disjoint one kept.
    ASSERT_EQ(a.metrics.size(), 2u);
    EXPECT_EQ(a.metrics[0].first, "shared");
    EXPECT_EQ(a.metrics[0].second, 2.0);
    EXPECT_EQ(a.metrics[1].first, "only_a");
    // Non-empty shard stats replace ("last machine wins").
    ASSERT_EQ(a.stats.size(), 1u);
    EXPECT_EQ(a.stats[0].first, "new.counter");

    // An empty shard snapshot leaves the current one alone.
    bench::Telemetry empty;
    a.merge(empty);
    ASSERT_EQ(a.stats.size(), 1u);
    EXPECT_EQ(a.stats[0].first, "new.counter");
}

TEST(TelemetryMerge, RecordRunFoldsResult)
{
    RunResult r;
    r.totalTicks = 42;
    r.eventsFired = 7;
    r.infraFailed = true;
    bench::Telemetry t;
    t.recordRun(r);
    t.recordRun(r);
    EXPECT_EQ(t.simTicks, 84u);
    EXPECT_EQ(t.eventsFired, 14u);
    EXPECT_EQ(t.runs, 2u);
    EXPECT_EQ(t.infraFailedRuns, 2u);
}

// --- thread redirect --------------------------------------------------

TEST(TelemetryScope, ScopedTelemetryRedirectsThisThread)
{
    bench::Telemetry &process = bench::telemetry();
    uint64_t before = process.runs;
    bench::Telemetry shard;
    {
        bench::ScopedTelemetry redirect(shard);
        EXPECT_EQ(&bench::telemetry(), &shard);
        bench::telemetry().runs += 3;
    }
    EXPECT_EQ(&bench::telemetry(), &process);
    EXPECT_EQ(shard.runs, 3u);
    EXPECT_EQ(process.runs, before);
}

// --- runJobs determinism ----------------------------------------------

namespace
{

/**
 * The whole aggregate a bench run would publish -- telemetry record
 * fields plus the merged event log -- after fanning 5 executor jobs
 * (one of which fails) across @p workers threads. Byte differences
 * between worker counts are aggregation-order bugs.
 */
std::string
aggregateAtFanout(unsigned workers)
{
    bench::telemetry() = bench::Telemetry{};
    obs::log().clear();
    obs::log().enable();

    bench::setJobs(workers);
    auto outcomes = bench::runJobs(
        5,
        [](size_t id, SimContext &) {
            if (id == 3)
                throw std::runtime_error("job 3 deliberate failure");
            Fig1BLoop loop(8 + 2 * id);
            MachineConfig cfg;
            cfg.numProcs = 4;
            ExecConfig xc;
            xc.mode = ExecMode::HW;
            LoopExecutor exec(cfg, loop, xc);
            RunResult r = exec.run();
            bench::telemetry().recordRun(r);
            bench::telemetry().metric("last_iters",
                                      double(r.itersExecuted));
            StatSnapshot snap;
            exec.machine().snapshot(snap);
            bench::telemetry().stats = snap;
        },
        /*base_seed=*/11);
    EXPECT_EQ(outcomes.size(), 5u);
    EXPECT_FALSE(outcomes[3].ok);

    std::string out = renderTelemetry(bench::telemetry());
    out += obs::log().jsonl();

    bench::setJobs(1);
    bench::telemetry() = bench::Telemetry{};
    obs::log().clear();
    obs::log().disable();
    return out;
}

} // namespace

TEST(TelemetryRunJobs, AggregationIsByteIdenticalAcrossFanouts)
{
    std::string serial = aggregateAtFanout(1);
    std::string parallel = aggregateAtFanout(4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // The aggregate really carries both layers.
    EXPECT_NE(serial.find("metric last_iters"), std::string::npos);
    EXPECT_NE(serial.find("\"ev\":\"run_begin\""), std::string::npos);
    EXPECT_NE(serial.find("\"ev\":\"job_end\""), std::string::npos);
    EXPECT_NE(serial.find("job 3 deliberate failure"),
              std::string::npos);
    EXPECT_EQ(serial.find("ticks=0 "), std::string::npos)
        << "jobs recorded no simulated work:\n"
        << serial;
}

TEST(TelemetryRunJobs, DisabledEventLogStaysEmpty)
{
    bench::telemetry() = bench::Telemetry{};
    obs::log().clear();
    obs::log().disable();
    bench::setJobs(2);
    bench::runJobs(3, [](size_t, SimContext &) {
        Fig1BLoop loop(8);
        MachineConfig cfg;
        cfg.numProcs = 2;
        ExecConfig xc;
        xc.mode = ExecMode::HW;
        LoopExecutor(cfg, loop, xc).run();
    });
    EXPECT_EQ(obs::log().recorded(), 0u);
    bench::setJobs(1);
    bench::telemetry() = bench::Telemetry{};
}
