/**
 * @file
 * Tests for the campaign flight recorder (obs/event_log.hh,
 * obs/report.hh): ring bounds and shard merging, exact emitter
 * formats, executor lifecycle instrumentation, byte-identity of the
 * merged event log across campaign fan-outs, report render /
 * round-trip / self-diff, the per-key diff direction rules, the perf
 * gate and baseline rebase, checked file writes, the progress status
 * file, and replayable failure attribution.
 *
 * Rule observed throughout (see test_campaign.cc): no gtest
 * assertions inside campaign jobs; jobs record into id-indexed slots
 * and the main thread asserts.
 */

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "obs/event_log.hh"
#include "obs/report.hh"
#include "obs/sinks.hh"
#include "sim/campaign.hh"
#include "sim/sim_context.hh"
#include "support/json_checker.hh"
#include "workloads/microloops.hh"

using namespace specrt;
using test_support::validJson;

namespace
{

/**
 * Each test runs in a private SimContext, so its event log starts
 * disabled and empty and the process-level context is untouched.
 * ScopedSimContext refreshes the probe word on both edges.
 */
class ObsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        scoped = std::make_unique<ScopedSimContext>(ctx);
    }

    void
    TearDown() override
    {
        scoped.reset();
    }

    SimContext ctx;
    std::unique_ptr<ScopedSimContext> scoped;
};

} // namespace

// --- EventLog ring ----------------------------------------------------

TEST_F(ObsTest, RingKeepsNewestAndCountsDrops)
{
    obs::EventLog log;
    log.enable(4);
    for (int i = 0; i < 7; ++i)
        log.emit("line " + std::to_string(i));
    EXPECT_EQ(log.capacity(), 4u);
    EXPECT_EQ(log.size(), 4u);
    EXPECT_EQ(log.recorded(), 7u);
    EXPECT_EQ(log.dropped(), 3u);
    // Oldest-first iteration over the retained suffix.
    for (size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(log.at(i), "line " + std::to_string(i + 3));
    EXPECT_EQ(log.jsonl(), "line 3\nline 4\nline 5\nline 6\n");

    log.clear();
    EXPECT_EQ(log.size(), 0u);
    EXPECT_EQ(log.recorded(), 0u);
    EXPECT_TRUE(log.isOn()) << "clear() keeps the on/off state";
}

TEST_F(ObsTest, EnableReshapesWithoutReordering)
{
    obs::EventLog log;
    log.enable(3);
    for (int i = 0; i < 5; ++i) {
        std::string line = "e";
        line += std::to_string(i);
        log.emit(line);
    }
    // Growing keeps the retained lines, oldest first.
    log.enable(8);
    EXPECT_EQ(log.jsonl(), "e2\ne3\ne4\n");
    log.emit("e5");
    EXPECT_EQ(log.at(3), "e5");
    // Shrinking sheds oldest-first.
    log.enable(2);
    EXPECT_EQ(log.jsonl(), "e4\ne5\n");
}

TEST_F(ObsTest, MergeAppendsShardsInCallOrder)
{
    obs::EventLog a, b, c, dst;
    a.enable(8);
    a.emit("a0");
    a.emit("a1");
    // b stays empty; c is never enabled but emit() still records
    // (enablement is the emitters' job, merge paths use raw logs).
    c.emit("c0");
    dst.merge(a);
    dst.merge(b);
    dst.merge(c);
    EXPECT_EQ(dst.jsonl(), "a0\na1\nc0\n");
    EXPECT_EQ(dst.recorded(), 3u);

    // A shard that shed lines carries its true emit count along.
    obs::EventLog small;
    small.enable(1);
    small.emit("s0");
    small.emit("s1");
    obs::EventLog sum;
    sum.merge(small);
    EXPECT_EQ(sum.size(), 1u);
    EXPECT_EQ(sum.recorded(), 2u);
    EXPECT_EQ(sum.dropped(), 1u);
}

// --- typed emitters ---------------------------------------------------

TEST_F(ObsTest, DisabledEmittersRecordNothing)
{
    ASSERT_FALSE(obs::enabled());
    obs::runBegin(0, "HW", 64, 8);
    obs::runEnd(9, "HW", true, false, 9, 64);
    obs::jobBegin(1, 0x2a);
    obs::jobEnd(1, true, "");
    obs::abortEvent(3, 0x1a8, 2, 7, "flow dep", "RAW");
    obs::swAbort(4, "lrpd");
    obs::faultInject(5, "drop", "ReadReq", 1, 2);
    obs::degrade("HW", "SW", "lost");
    obs::checkpointMark(6, "backup");
    obs::commitMark(7);
    EXPECT_EQ(obs::log().recorded(), 0u);
}

TEST_F(ObsTest, EmitterLinesAreByteExact)
{
    obs::log().enable();
    ASSERT_TRUE(obs::enabled());
    obs::runBegin(0, "HW", 64, 8);
    obs::runEnd(9301, "HW", false, false, 9301, 64);
    obs::jobBegin(3, 0x1a2b);
    obs::jobEnd(3, false, "went \"boom\"");
    obs::abortEvent(302, 0x1a8, 2, 7, "flow dep", "RAW");
    obs::swAbort(10, "software LRPD test failed");
    obs::faultInject(5, "drop", "ReadReq", 1, 2);
    obs::degrade("HW", "SW", "lost message");
    obs::checkpointMark(1, "backup of shared arrays");
    obs::commitMark(99);

    const obs::EventLog &log = obs::log();
    ASSERT_EQ(log.size(), 10u);
    EXPECT_EQ(log.at(0), "{\"ev\":\"run_begin\",\"t\":0,\"mode\":"
                         "\"HW\",\"iters\":64,\"procs\":8}");
    EXPECT_EQ(log.at(1),
              "{\"ev\":\"run_end\",\"t\":9301,\"mode\":\"HW\","
              "\"passed\":false,\"infra_failed\":false,"
              "\"total_ticks\":9301,\"iters\":64}");
    EXPECT_EQ(log.at(2), "{\"ev\":\"job_begin\",\"job\":3,"
                         "\"seed\":\"0x1a2b\"}");
    EXPECT_EQ(log.at(3), "{\"ev\":\"job_end\",\"job\":3,\"ok\":false,"
                         "\"error\":\"went \\\"boom\\\"\"}");
    EXPECT_EQ(log.at(4),
              "{\"ev\":\"abort\",\"t\":302,\"elem\":\"0x1a8\","
              "\"node\":2,\"iter\":7,\"reason\":\"flow dep\","
              "\"rule\":\"RAW\"}");
    EXPECT_EQ(log.at(5), "{\"ev\":\"sw_abort\",\"t\":10,\"reason\":"
                         "\"software LRPD test failed\"}");
    EXPECT_EQ(log.at(6),
              "{\"ev\":\"fault\",\"t\":5,\"kind\":\"drop\","
              "\"msg\":\"ReadReq\",\"src\":1,\"dst\":2}");
    EXPECT_EQ(log.at(7), "{\"ev\":\"degrade\",\"from\":\"HW\","
                         "\"to\":\"SW\",\"reason\":\"lost message\"}");
    EXPECT_EQ(log.at(8), "{\"ev\":\"checkpoint\",\"t\":1,\"what\":"
                         "\"backup of shared arrays\"}");
    EXPECT_EQ(log.at(9), "{\"ev\":\"commit\",\"t\":99}");
    // Every line is standalone JSON (the schema checker's contract).
    for (size_t i = 0; i < log.size(); ++i)
        EXPECT_TRUE(validJson(log.at(i))) << log.at(i);
}

TEST_F(ObsTest, EnvEnableIsPerContext)
{
    // SPECRT_OBS reaches a context through obs::apply() (applyEnv()
    // is apply(current, envSpec()), once per context), so switching
    // one context on leaves every other context off.
    SimContext inner;
    obs::apply(inner, {probe::Events, ""});
    {
        ScopedSimContext active(inner);
        EXPECT_TRUE(obs::enabled());
        obs::applyEnv(); // already set up: the environment is skipped
        EXPECT_TRUE(obs::enabled());
    }
    // The outer (fixture) context was never switched on.
    EXPECT_FALSE(obs::enabled());
    SimContext off;
    {
        ScopedSimContext active(off);
        EXPECT_FALSE(obs::enabled());
    }
}

// --- executor lifecycle instrumentation -------------------------------

namespace
{

/** Run @p w under HW speculation with the current log collecting. */
RunResult
instrumentedRun(Workload &w)
{
    obs::log().enable();
    MachineConfig cfg;
    cfg.numProcs = 4;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor exec(cfg, w, xc);
    return exec.run();
}

} // namespace

TEST_F(ObsTest, ExecutorEmitsLifecycleEvents)
{
    Fig1BLoop parallel(16); // privatizable swap: HW run passes
    RunResult r = instrumentedRun(parallel);
    ASSERT_TRUE(r.passed);
    std::string jsonl = obs::log().jsonl();
    EXPECT_NE(jsonl.find("\"ev\":\"run_begin\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"ev\":\"checkpoint\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"ev\":\"commit\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"passed\":true"), std::string::npos);
    ASSERT_GE(obs::log().size(), 2u);
    EXPECT_EQ(obs::log().at(0).find("{\"ev\":\"run_begin\""), 0u);
    EXPECT_EQ(obs::log().at(obs::log().size() - 1)
                  .find("{\"ev\":\"run_end\""),
              0u);
}

TEST_F(ObsTest, ExecutorEmitsAbortAttribution)
{
    Fig1ALoop serialDep(16); // A(i) += A(i-1): HW speculation aborts
    RunResult r = instrumentedRun(serialDep);
    ASSERT_FALSE(r.passed);
    std::string jsonl = obs::log().jsonl();
    EXPECT_NE(jsonl.find("\"ev\":\"abort\""), std::string::npos);
    EXPECT_NE(jsonl.find("\"passed\":false"), std::string::npos);
}

// --- campaign merge determinism ---------------------------------------

namespace
{

/**
 * Run an n-job campaign where each job fills its own event log with
 * a real executor run, capture the per-job shards, and merge them in
 * job-id order -- exactly what bench::runJobs does. The merged JSONL
 * must not depend on the worker count.
 */
std::string
mergedCampaignEvents(size_t n, unsigned workers)
{
    std::vector<obs::EventLog> shards(n);
    campaign::Options o;
    o.jobs = workers;
    o.baseSeed = 7;
    campaign::run(
        n,
        [&](size_t id, SimContext &) {
            obs::log().enable();
            Fig1BLoop loop(8 + 2 * id);
            MachineConfig cfg;
            cfg.numProcs = 4;
            ExecConfig xc;
            xc.mode = ExecMode::HW;
            LoopExecutor exec(cfg, loop, xc);
            exec.run();
            shards[id] = obs::log();
        },
        o);
    obs::EventLog merged;
    for (const obs::EventLog &shard : shards)
        merged.merge(shard);
    return merged.jsonl();
}

} // namespace

TEST_F(ObsTest, MergedEventsAreByteIdenticalAcrossJobs)
{
    std::string serial = mergedCampaignEvents(6, 1);
    std::string parallel = mergedCampaignEvents(6, 4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("\"ev\":\"run_begin\""), std::string::npos);
}

// --- report render / parse / diff -------------------------------------

namespace
{

obs::RunTotals
sampleTotals()
{
    obs::RunTotals t;
    t.simTicks = 9301;
    t.eventsFired = 120;
    t.runs = 3;
    t.metric("fig11_speedup", 3.25);
    t.stats.emplace_back("machine.aborts", 2.0);
    return t;
}

obs::ReportInputs
sampleInputs(const obs::RunTotals *totals, const obs::Sinks *sinks)
{
    obs::ReportInputs in;
    in.name = "fig11_speedup";
    in.gitSha = "deadbeef";
    in.configFingerprint = "00ffee11";
    in.baseSeed = 42;
    in.totals = totals;
    in.sinks = sinks;
    return in;
}

} // namespace

TEST_F(ObsTest, ReportRendersValidJsonAndRoundTrips)
{
    obs::log().enable();
    obs::runBegin(0, "HW", 64, 8);
    obs::abortEvent(302, 0x1a8, 2, 7, "flow dep", "RAW");
    obs::runEnd(9301, "HW", false, false, 9301, 64);
    // One profiled 4-node run: node 0 busy for 700 of 1000 ticks.
    ctx.sinks.critpath.enable();
    ctx.sinks.critpath.beginRun(4).settlePhase(
        1000, {700, 0, 0, 0}, stall::Cause::LoadMiss);
    ctx.sinks.critpath.endRun(1000);

    obs::RunTotals totals = sampleTotals();
    std::string json = renderReport(sampleInputs(&totals, &ctx.sinks));
    EXPECT_TRUE(validJson(json)) << json;

    obs::RunReport rep;
    std::string err;
    ASSERT_TRUE(obs::parseReport(json, rep, err)) << err;
    EXPECT_EQ(rep.strings.at("name"), "fig11_speedup");
    EXPECT_EQ(rep.numbers.at("base_seed"), 42.0);
    EXPECT_EQ(rep.numbers.at("sim_ticks"), 9301.0);
    EXPECT_EQ(rep.numbers.at("metrics.fig11_speedup"), 3.25);
    EXPECT_EQ(rep.numbers.at("cost.busy"), 700.0);
    EXPECT_EQ(rep.numbers.at("cost.stalls.load_miss"), 3300.0);
    EXPECT_EQ(rep.strings.at("critpath.summary"),
              "run bounded 100% by load-miss");
    EXPECT_EQ(rep.numbers.at("events.counts.abort"), 1.0);
    EXPECT_EQ(rep.numbers.at("events.recorded"), 3.0);

    // Rendering twice is byte-identical; a self-diff is empty.
    EXPECT_EQ(json, renderReport(sampleInputs(&totals, &ctx.sinks)));
    obs::DiffResult d = obs::diff(rep, rep);
    EXPECT_TRUE(d.identical());
    std::string md = obs::diffMarkdown(d, "a", "b");
    EXPECT_NE(md.find("No differences"), std::string::npos);
}

TEST_F(ObsTest, ReportNullSectionsRenderAsZeros)
{
    obs::ReportInputs in;
    in.name = "empty";
    std::string json = renderReport(in);
    EXPECT_TRUE(validJson(json)) << json;
    obs::RunReport rep;
    std::string err;
    ASSERT_TRUE(obs::parseReport(json, rep, err)) << err;
    // Sections are always present so two reports share a key set.
    EXPECT_EQ(rep.numbers.at("critpath.runs"), 0.0);
    EXPECT_EQ(rep.numbers.at("timeline.samples"), 0.0);
    EXPECT_EQ(rep.numbers.at("events.recorded"), 0.0);
    EXPECT_EQ(rep.numbers.at("cost.valid"), 0.0);
}

TEST_F(ObsTest, DiffDirectionRules)
{
    EXPECT_EQ(obs::keyDirection("metrics.fig11_speedup"), 1);
    EXPECT_EQ(obs::keyDirection("metrics.hw_speedup_mean_16p"), 1);
    EXPECT_EQ(obs::keyDirection("ticks_per_sec"), 1);
    EXPECT_EQ(obs::keyDirection("cost.stalls.dir_queue"), -1);
    EXPECT_EQ(obs::keyDirection("events.counts.abort"), -1);
    EXPECT_EQ(obs::keyDirection("events.counts.run_begin"), 0);
    EXPECT_EQ(obs::keyDirection("infra_failed_runs"), -1);
    EXPECT_EQ(obs::keyDirection("sim_ticks"), 0);

    obs::RunReport a, b;
    a.numbers["metrics.x_speedup"] = 2.0;
    b.numbers["metrics.x_speedup"] = 3.0; // up on a +1 key: improved
    a.numbers["cost.stalls.dir_queue"] = 100;
    b.numbers["cost.stalls.dir_queue"] = 150; // up on a -1 key
    a.numbers["sim_ticks"] = 100;
    b.numbers["sim_ticks"] = 200; // neutral key: changed
    a.numbers["runs"] = 100;
    b.numbers["runs"] = 101; // within 2% tolerance: equal
    a.numbers["gone"] = 1;
    b.numbers["fresh"] = 1;
    a.strings["git_sha"] = "aaa";
    b.strings["git_sha"] = "bbb"; // strings diff as neutral rows

    obs::DiffResult d = obs::diff(a, b);
    EXPECT_EQ(d.regressions, 1u);
    EXPECT_EQ(d.improvements, 1u);
    ASSERT_EQ(d.rows.size(), 6u); // sorted: all but "runs"
    std::map<std::string, obs::DiffKind> kinds;
    for (const obs::DiffRow &row : d.rows)
        kinds[row.key] = row.kind;
    EXPECT_EQ(kinds.at("metrics.x_speedup"), obs::DiffKind::Improved);
    EXPECT_EQ(kinds.at("cost.stalls.dir_queue"),
              obs::DiffKind::Regressed);
    EXPECT_EQ(kinds.at("sim_ticks"), obs::DiffKind::Changed);
    EXPECT_EQ(kinds.at("git_sha"), obs::DiffKind::Changed);
    EXPECT_EQ(kinds.at("gone"), obs::DiffKind::Removed);
    EXPECT_EQ(kinds.at("fresh"), obs::DiffKind::Added);
    EXPECT_EQ(kinds.count("runs"), 0u);

    std::string md = obs::diffMarkdown(d, "base", "new");
    EXPECT_NE(md.find(":x: regressed"), std::string::npos);
    EXPECT_NE(md.find(":white_check_mark: improved"),
              std::string::npos);
    EXPECT_NE(md.find("1 regression(s), 1 improvement(s)"),
              std::string::npos);
}

// --- perf gate ----------------------------------------------------------

namespace
{

/** The elements of JSON array @p json (parse failures fail the test). */
std::vector<obs::RunReport>
elements(const std::string &json)
{
    obs::RunReport flat;
    std::string err;
    std::vector<obs::RunReport> out;
    EXPECT_TRUE(obs::parseReport(json, flat, err)) << err;
    EXPECT_TRUE(obs::splitArray(flat, out)) << json;
    return out;
}

/** A bench record: the report members the gate reads, plus @p extra. */
std::string
record(const std::string &name, double rate,
       const std::string &metrics, int exitCode = 0,
       const std::string &extra = "")
{
    return "{\"schema\": 1, \"name\": \"" + name + "\", " + extra +
           "\"metrics\": {" + metrics +
           "}, \"host\": {\"exit_code\": " + std::to_string(exitCode) +
           ", \"ticks_per_sec\": " + obs::jsonNumber(rate) + "}}";
}

const char *smokeBaseline =
    "[{\"bench\": \"smoke\", \"ticks_per_sec\": 100.0, "
    "\"events_per_sec\": 1e12, \"min_foo_speedup\": 0.8}]";

obs::GateResult
gateOne(const std::string &rec, double tolerance = 0.75)
{
    return obs::gate(elements(smokeBaseline), elements("[" + rec + "]"),
                     tolerance);
}

/** The table rows of a gate's Markdown (header and rule excluded). */
std::vector<std::string>
tableRows(const obs::GateResult &g)
{
    std::istringstream lines(g.markdown);
    std::vector<std::string> rows;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("| ", 0) == 0 && line.rfind("| status", 0) != 0)
            rows.push_back(line);
    }
    return rows;
}

} // namespace

TEST(ReportGate, UnknownAndTimelineKeysNeverFail)
{
    // Sink sections, stall cycles, host memory and metrics the
    // baseline does not name are informational however bad they look.
    std::string extra =
        "\"timeline_samples\": 5, \"timeline\": {\"samples\": 5}, "
        "\"events\": {\"counts\": {\"abort\": 99}}, "
        "\"cost\": {\"stalls\": {\"dir_queue\": 1e9}}, "
        "\"stats\": {\"x.retries\": 1e9}, ";
    obs::GateResult g = gateOne(
        record("smoke", 100,
               "\"foo_speedup\": 1.0, \"timeline_sample_speedup\": 0.01, "
               "\"other_speedup\": 0.01",
               0, extra));
    EXPECT_EQ(g.failures, 0u) << g.markdown;
    EXPECT_EQ(g.comparisons, 2u); // ticks_per_sec and foo_speedup
    EXPECT_EQ(tableRows(g).size(), 2u) << g.markdown;
}

TEST(ReportGate, FloorViolationFails)
{
    obs::GateResult g =
        gateOne(record("smoke", 100, "\"foo_speedup\": 0.5"));
    EXPECT_EQ(g.failures, 1u);
    EXPECT_EQ(g.comparisons, 2u);
    EXPECT_NE(g.markdown.find("| :x: FAIL | smoke | foo_speedup | 0.5 "
                              "| - | 0.8 | - |"),
              std::string::npos)
        << g.markdown;
    // The floor is absolute: no tolerance loosens it.
    EXPECT_EQ(gateOne(record("smoke", 100, "\"foo_speedup\": 0.79"), 0.99)
                  .failures,
              1u);
    EXPECT_EQ(gateOne(record("smoke", 100, "\"foo_speedup\": 0.8"))
                  .failures,
              0u);
}

TEST(ReportGate, RateBelowTheToleranceBandFails)
{
    // Bound = (1 - 0.75) x 100 = 25 ticks/s.
    obs::GateResult ok =
        gateOne(record("smoke", 25, "\"foo_speedup\": 1"));
    EXPECT_EQ(ok.failures, 0u) << ok.markdown;
    obs::GateResult slow =
        gateOne(record("smoke", 24.9, "\"foo_speedup\": 1"));
    EXPECT_EQ(slow.failures, 1u);
    EXPECT_NE(slow.markdown.find("| :x: FAIL | smoke | ticks_per_sec | "
                                 "24.9 | 100 | 25 | -75.1% |"),
              std::string::npos)
        << slow.markdown;
    // A tighter tolerance raises the bound.
    EXPECT_EQ(gateOne(record("smoke", 90, "\"foo_speedup\": 1"), 0.05)
                  .failures,
              1u);
}

TEST(ReportGate, NonzeroExitCodeFails)
{
    obs::GateResult g =
        gateOne(record("smoke", 100, "\"foo_speedup\": 1", 3));
    EXPECT_EQ(g.failures, 1u);
    EXPECT_EQ(g.comparisons, 0u);
    std::vector<std::string> rows = tableRows(g);
    ASSERT_EQ(rows.size(), 1u) << g.markdown;
    EXPECT_NE(rows[0].find("| :x: FAIL | smoke | exit_code | 3 |"),
              std::string::npos)
        << g.markdown;
}

TEST(ReportGate, MissingGatedMetricFails)
{
    obs::GateResult g = gateOne(record("smoke", 100, "\"bar\": 2"));
    EXPECT_EQ(g.failures, 1u);
    EXPECT_EQ(g.comparisons, 1u);
    EXPECT_NE(g.markdown.find("| :x: FAIL | smoke | foo_speedup | - |"),
              std::string::npos)
        << g.markdown;
}

TEST(ReportGate, BenchWithoutBaselineIsSkipped)
{
    // Even a zero rate and no metrics: nothing to judge it against.
    obs::GateResult g = obs::gate(
        elements(smokeBaseline),
        elements("[" + record("newcomer", 0, "") + ", " +
                 record("smoke", 100, "\"foo_speedup\": 1") + "]"),
        0.75);
    EXPECT_EQ(g.failures, 0u) << g.markdown;
    EXPECT_EQ(g.comparisons, 2u); // smoke's
    std::vector<std::string> rows = tableRows(g);
    ASSERT_EQ(rows.size(), 3u) << g.markdown;
    EXPECT_EQ(rows[0].rfind("| skip | newcomer | ticks_per_sec |", 0), 0u)
        << g.markdown;
}

TEST(ReportGate, BaselinedBenchWithoutRecordFails)
{
    // A bench renamed or run with --no-json must not slip out of the
    // gate: its baseline entry fails, without counting as a
    // comparison.
    std::vector<obs::RunReport> base = elements(
        "[{\"bench\": \"a\", \"ticks_per_sec\": 100}, "
        "{\"bench\": \"b\", \"ticks_per_sec\": 100, "
        "\"min_y_speedup\": 2}]");
    obs::GateResult g =
        obs::gate(base, elements("[" + record("a", 100, "") + "]"), 0.75);
    EXPECT_EQ(g.failures, 1u) << g.markdown;
    EXPECT_EQ(g.comparisons, 1u);
    std::vector<std::string> rows = tableRows(g);
    ASSERT_EQ(rows.size(), 2u) << g.markdown;
    EXPECT_EQ(rows[1], "| :x: FAIL | b | no record | - | - | - | - |")
        << g.markdown;
    EXPECT_NE(g.markdown.find("\n**1 comparisons, 1 failures.**\n"),
              std::string::npos)
        << g.markdown;
}

TEST(ReportGate, LatestRecordPerBenchIsJudged)
{
    // Results files append: an older failing record is superseded.
    std::vector<obs::RunReport> recs =
        elements("[" + record("smoke", 1, "\"foo_speedup\": 0.1", 1) +
                 ", " + record("smoke", 100, "\"foo_speedup\": 1") + "]");
    obs::GateResult g = obs::gate(elements(smokeBaseline), recs, 0.75);
    EXPECT_EQ(g.failures, 0u) << g.markdown;
    EXPECT_EQ(g.comparisons, 2u);
}

TEST(ReportGate, MarkdownHasOneRowPerComparisonAndTheVerdict)
{
    obs::GateResult g =
        gateOne(record("smoke", 100, "\"foo_speedup\": 0.5"));
    std::vector<std::string> rows = tableRows(g);
    ASSERT_EQ(rows.size(), g.comparisons) << g.markdown;
    EXPECT_NE(rows[0].find("| smoke | ticks_per_sec | 100 | 100 | 25 |"),
              std::string::npos)
        << g.markdown;
    EXPECT_NE(rows[1].find("| smoke | foo_speedup |"), std::string::npos)
        << g.markdown;
    EXPECT_NE(g.markdown.find("\n**2 comparisons, 1 failures.**\n"),
              std::string::npos)
        << g.markdown;
}

TEST(ReportGate, RebaseWritesRatesAndSpeedupFloors)
{
    std::string recs =
        "[" + record("smoke", 1, "\"foo_speedup\": 9") + ", " +
        "{\"name\": \"other\", \"metrics\": {\"bar_speedup\": 2}, "
        "\"host\": {\"ticks_per_sec\": 5, \"events_per_sec\": 6}}, " +
        "{\"name\": \"smoke\", \"metrics\": {\"foo_speedup\": "
        "1.23456, \"timeline_sample_speedup\": 9, \"x_ratio\": 3}, "
        "\"host\": {\"ticks_per_sec\": 599907.5003911795, "
        "\"events_per_sec\": 0.5}}, " +
        "{\"bench\": \"no_name\", \"ticks_per_sec\": 7}]";
    std::string text = obs::rebaseline(elements(recs));
    // The latest record per bench, sorted by name; rates as recorded
    // and each *_speedup metric but the timeline one at round(0.8 x m,
    // 3), laid out like json.dumps(indent=2).
    EXPECT_EQ(text, "[\n"
                    "  {\n"
                    "    \"bench\": \"other\",\n"
                    "    \"ticks_per_sec\": 5,\n"
                    "    \"events_per_sec\": 6,\n"
                    "    \"min_bar_speedup\": 1.6\n"
                    "  },\n"
                    "  {\n"
                    "    \"bench\": \"smoke\",\n"
                    "    \"ticks_per_sec\": 599907.5003911795,\n"
                    "    \"events_per_sec\": 0.5,\n"
                    "    \"min_foo_speedup\": 0.988\n"
                    "  }\n"
                    "]\n");

    // The rewritten baseline gates the records it came from.
    obs::GateResult g = obs::gate(elements(text), elements(recs), 0.75);
    EXPECT_EQ(g.failures, 0u);
    EXPECT_EQ(g.comparisons, 4u);
    EXPECT_EQ(obs::rebaseline({}), "[]\n");
}

TEST(ReportGate, SplitArrayTakesOnlyArrays)
{
    obs::RunReport flat;
    std::string err;
    std::vector<obs::RunReport> out;
    ASSERT_TRUE(obs::parseReport("{\"a\": [1, 2]}", flat, err)) << err;
    EXPECT_FALSE(obs::splitArray(flat, out));
    // An index from the input never sizes a buffer.
    ASSERT_TRUE(obs::parseReport("{\"[4000000000]\": 1}", flat, err));
    ASSERT_TRUE(obs::splitArray(flat, out));
    EXPECT_EQ(out.size(), 1u);
}

// --- checked file writes ----------------------------------------------

TEST(ObsWrite, FullDiskFailsTheWrite)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    // Short bytes fail at the close, long ones at the write.
    EXPECT_FALSE(obs::writeFile("/dev/full", "bytes"));
    EXPECT_FALSE(obs::writeFile("/dev/full", std::string(1 << 20, 'x')));
}

TEST(ObsWrite, FailedTempWriteKeepsTheOldFile)
{
    std::string path = ::testing::TempDir() + "specrt_write_old.json";
    std::string tmp = path + ".tmp";
    ASSERT_TRUE(obs::writeFile(path, "old"));
    // A directory where the temp file should go: the write fails
    // before the target is touched.
    ASSERT_EQ(mkdir(tmp.c_str(), 0700), 0);
    EXPECT_FALSE(obs::writeFile(path, "new", true));
    rmdir(tmp.c_str());
    auto contents = [&] {
        std::ifstream is(path);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    EXPECT_EQ(contents(), "old");

    EXPECT_TRUE(obs::writeFile(path, "new", true));
    EXPECT_EQ(contents(), "new");
    EXPECT_NE(access(tmp.c_str(), F_OK), 0) << "temp file left behind";
    std::remove(path.c_str());
}

// --- progress streaming -----------------------------------------------

TEST_F(ObsTest, ProgressStatusFileIsPublished)
{
    std::string path = ::testing::TempDir() + "specrt_status.json";
    std::remove(path.c_str());
    campaign::Options o;
    o.jobs = 2;
    o.progressPath = path;
    o.progressIntervalMs = 10;
    o.progressLive = [] {
        campaign::ProgressLive live;
        live.simTicks = 1234;
        live.hot = "node 0: 7 msgs";
        return live;
    };
    auto outcomes = campaign::run(
        6, [](size_t, SimContext &) {}, o);
    ASSERT_TRUE(campaign::allOk(outcomes));

    // The final snapshot is published before run() returns.
    std::ifstream f(path);
    ASSERT_TRUE(f.good()) << path;
    std::stringstream ss;
    ss << f.rdbuf();
    std::string snap = ss.str();
    EXPECT_TRUE(validJson(snap)) << snap;
    EXPECT_NE(snap.find("\"done\": true"), std::string::npos);
    EXPECT_NE(snap.find("\"ok\": 6"), std::string::npos);
    EXPECT_NE(snap.find("\"sim_ticks\": 1234"), std::string::npos);
    EXPECT_NE(snap.find("node 0: 7 msgs"), std::string::npos);
    // No torn-write temp file left behind.
    std::ifstream tmp(path + ".tmp");
    EXPECT_FALSE(tmp.good());
    std::remove(path.c_str());
}

// --- replayable failure attribution -----------------------------------

TEST_F(ObsTest, DescribeFailuresNamesSeedAndConfig)
{
    campaign::Options o;
    o.jobs = 2;
    o.baseSeed = 5;
    auto outcomes = campaign::run(
        4,
        [](size_t id, SimContext &ctx) {
            ctx.configFingerprint = "cafe1234";
            if (id == 2)
                throw std::runtime_error("boom");
        },
        o);
    EXPECT_FALSE(campaign::allOk(outcomes));
    EXPECT_EQ(outcomes[2].seed, campaign::jobSeed(5, 2));
    EXPECT_EQ(outcomes[2].configFingerprint, "cafe1234");
    std::string report = campaign::describeFailures(outcomes);
    EXPECT_NE(report.find("job 2"), std::string::npos);
    EXPECT_NE(report.find("seed 0x"), std::string::npos);
    EXPECT_NE(report.find("cafe1234"), std::string::npos);
    EXPECT_NE(report.find("boom"), std::string::npos);
}
