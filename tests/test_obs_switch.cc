/**
 * @file
 * Tests for the observability switch (obs/sinks.hh, sim/probe.hh):
 *
 *  - the golden lock on the four artifacts: trace.json, timeline.csv,
 *    critpath.json and events.jsonl from one small 4-processor run
 *    with every sink on, written by a context that dies with an
 *    export directory. The scenario runs one HW loop that aborts
 *    (Fig. 1(a)) and one that commits (Fig. 1(b)), so the files
 *    cover abort attribution, the checkpoint/commit lifecycle, the
 *    critical-path track and the timeline's counter tracks;
 *  - the same lock on the report.json rendered from that scenario's
 *    sinks (obs/report.hh), under a fixed name and SHA;
 *  - switching the trace on moves neither the timeline nor the event
 *    log of that scenario;
 *  - a dying context writes exactly its enabled, non-empty sinks;
 *  - every recorder's enable()/disable() shows in its enabled() guard
 *    without a manual refresh;
 *  - the sink-list parser as a pure function over the string.
 *
 * The committed copies live in tests/golden/obs/. A deliberate change
 * to an exporter regenerates them by copying the files this test
 * writes (their paths are printed on a mismatch).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "obs/report.hh"
#include "obs/sinks.hh"
#include "sim/sim_context.hh"
#include "sim/stall.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

const char *const sinkFiles[] = {"trace.json", "timeline.csv",
                                 "critpath.json", "events.jsonl"};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    return buf.str();
}

/** A fresh, empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/**
 * Two 4-processor HW runs: Fig. 1(a) aborts, Fig. 1(b) commits.
 * Returns their totals as a bench folds them for its report (the
 * cost totals live in the critpath sink).
 */
obs::RunTotals
runGoldenScenario()
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    obs::RunTotals totals;
    auto fold = [&totals](const RunResult &r) {
        totals.simTicks += r.totalTicks;
        ++totals.runs;
        return r.passed;
    };
    Fig1ALoop aborts(6);
    EXPECT_FALSE(fold(LoopExecutor(cfg, aborts, xc).run()));
    Fig1BLoop commits(6);
    EXPECT_TRUE(fold(LoopExecutor(cfg, commits, xc).run()));
    return totals;
}

/**
 * Run the golden scenario in a context recording the sinks @p bits
 * and let it die, writing them into a fresh @p dir_name; returns the
 * directory.
 */
std::string
recordScenario(const std::string &dir_name, uint32_t bits)
{
    std::string dir = freshDir(dir_name);
    {
        SimContext ctx;
        obs::apply(ctx, {bits, dir});
        ScopedSimContext active(ctx);
        runGoldenScenario();
    }
    return dir;
}

/** Capture warn() output of the current context. */
class WarnCapture
{
  public:
    WarnCapture()
    {
        prev = setLogSink([this](LogLevel, const std::string &m) {
            lines.push_back(m);
        });
    }
    ~WarnCapture() { setLogSink(prev); }

    std::vector<std::string> lines;

  private:
    LogSink prev;
};

} // namespace

// --- golden lock ------------------------------------------------------

TEST(ObsGolden, FourSinkFilesMatchTheCommittedCopies)
{
    std::string dir = recordScenario("specrt_obs_golden", obs::allSinks);
    for (const char *name : sinkFiles) {
        std::string want =
            slurp(std::string(SPECRT_GOLDEN_DIR) + "/" + name);
        ASSERT_FALSE(want.empty()) << name;
        EXPECT_TRUE(slurp(dir + "/" + name) == want)
            << name << " drifted from tests/golden/obs/" << name
            << "; the new copy is " << dir << "/" << name;
    }
}

TEST(ObsGolden, ReportMatchesTheCommittedCopy)
{
    std::string dir = freshDir("specrt_obs_report");
    SimContext ctx;
    obs::apply(ctx, {obs::allSinks, ""});
    ScopedSimContext active(ctx);
    obs::RunTotals totals = runGoldenScenario();
    obs::ReportInputs in;
    in.name = "obs_golden";
    in.gitSha = "golden";
    in.totals = &totals;
    in.sinks = &ctx.sinks;
    std::string got = obs::renderReport(in);
    std::filesystem::create_directories(dir);
    ASSERT_TRUE(obs::writeFile(dir + "/report.json", got));
    std::string want =
        slurp(std::string(SPECRT_GOLDEN_DIR) + "/report.json");
    ASSERT_FALSE(want.empty());
    EXPECT_TRUE(got == want)
        << "report.json drifted from tests/golden/obs/report.json; "
           "the new copy is "
        << dir << "/report.json";
}

// --- no sink moves another's file -------------------------------------

TEST(ObsIndependence, TraceLeavesTheTimelineAlone)
{
    std::string alone =
        slurp(recordScenario("specrt_obs_tl", probe::Timeline) +
              "/timeline.csv");
    ASSERT_FALSE(alone.empty());
    EXPECT_TRUE(alone ==
                slurp(recordScenario("specrt_obs_tl_trace",
                                     probe::Timeline | probe::Trace) +
                      "/timeline.csv"));
}

TEST(ObsIndependence, TraceLeavesTheEventLogAlone)
{
    std::string alone =
        slurp(recordScenario("specrt_obs_ev", probe::Events) +
              "/events.jsonl");
    ASSERT_FALSE(alone.empty());
    EXPECT_TRUE(alone ==
                slurp(recordScenario("specrt_obs_ev_trace",
                                     probe::Events | probe::Trace) +
                      "/events.jsonl"));
}

// --- export on context death ------------------------------------------

TEST(ObsExport, DyingContextWritesExactlyItsNonEmptyEnabledSinks)
{
    std::string dir = freshDir("specrt_obs_export");
    {
        SimContext ctx;
        // timeline stays off; critpath is on but records nothing.
        obs::apply(ctx, {probe::Trace | probe::Critpath | probe::Events,
                         dir});
        ScopedSimContext active(ctx);
        obs::runBegin(0, "HW", 4, 2);
        obs::commitMark(7);
        EXPECT_FALSE(std::filesystem::exists(dir))
            << "nothing is written before the context dies";
    }
    EXPECT_TRUE(std::filesystem::exists(dir + "/trace.json"));
    EXPECT_TRUE(std::filesystem::exists(dir + "/events.jsonl"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/critpath.json"));
    EXPECT_FALSE(std::filesystem::exists(dir + "/timeline.csv"));
    EXPECT_EQ(slurp(dir + "/events.jsonl"),
              "{\"ev\":\"run_begin\",\"t\":0,\"mode\":\"HW\","
              "\"iters\":4,\"procs\":2}\n"
              "{\"ev\":\"commit\",\"t\":7}\n");
}

TEST(ObsExport, NoDirectoryMeansRecordOnly)
{
    std::string dir = freshDir("specrt_obs_record_only");
    std::filesystem::create_directories(dir);
    std::filesystem::path cwd = std::filesystem::current_path();
    std::filesystem::current_path(dir);
    {
        SimContext ctx;
        obs::apply(ctx, {obs::allSinks, ""});
        ScopedSimContext active(ctx);
        runGoldenScenario();
        EXPECT_GT(ctx.sinks.trace.recorded(), 0u);
        EXPECT_GT(ctx.sinks.events.recorded(), 0u);
    }
    std::filesystem::current_path(cwd);
    EXPECT_TRUE(std::filesystem::is_empty(dir));
}

// --- the probe word follows every recorder ----------------------------

TEST(ObsProbe, EveryEnableAndDisableShowsWithoutARefresh)
{
    SimContext ctx;
    ScopedSimContext active(ctx);
    EXPECT_FALSE(trace::enabled() || timeline::enabled() ||
                 critpath::enabled() || obs::enabled());
    ctx.sinks.critpath.beginRun(2);
    EXPECT_EQ(stall::active(), nullptr) << "the sink is still off";

    ctx.sinks.trace.enable();
    EXPECT_TRUE(trace::enabled());
    ctx.sinks.timeline.enable();
    EXPECT_TRUE(timeline::enabled());
    ctx.sinks.critpath.enable();
    EXPECT_TRUE(critpath::enabled());
    EXPECT_EQ(stall::active(), ctx.sinks.critpath.engine());
    ctx.sinks.events.enable();
    EXPECT_TRUE(obs::enabled());

    ctx.sinks.trace.disable();
    EXPECT_FALSE(trace::enabled());
    ctx.sinks.timeline.disable();
    EXPECT_FALSE(timeline::enabled());
    ctx.sinks.critpath.disable();
    EXPECT_FALSE(critpath::enabled());
    EXPECT_EQ(stall::active(), nullptr);
    ctx.sinks.events.disable();
    EXPECT_FALSE(obs::enabled());
}

TEST(ObsProbe, ContextSwitchSwapsTheWholeWord)
{
    SimContext on;
    obs::apply(on, {obs::allSinks, ""});
    SimContext off;
    ScopedSimContext outer(off);
    EXPECT_EQ(probe::word, 0u);
    {
        ScopedSimContext inner(on);
        EXPECT_EQ(probe::word, obs::allSinks);
    }
    EXPECT_EQ(probe::word, 0u);
}

// --- the sink-list grammar --------------------------------------------

TEST(ObsSpec, ParsesSinkListsAsAPureFunction)
{
    WarnCapture warns;
    EXPECT_EQ(obs::parseSinks(""), 0u);
    EXPECT_EQ(obs::parseSinks("0"), 0u);
    EXPECT_EQ(obs::parseSinks("trace"), probe::Trace);
    EXPECT_EQ(obs::parseSinks("trace,timeline,critpath,events"),
              obs::allSinks);
    EXPECT_EQ(obs::parseSinks("events,trace,events,trace"),
              probe::Trace | probe::Events);
    EXPECT_EQ(obs::parseSinks("  timeline , critpath\t"),
              probe::Timeline | probe::Critpath);
    EXPECT_EQ(obs::parseSinks(",,trace,"), probe::Trace);
    EXPECT_TRUE(warns.lines.empty());
}

TEST(ObsSpec, UnknownNamesWarnAndAreIgnored)
{
    WarnCapture warns;
    EXPECT_EQ(obs::parseSinks("trace,bogus"), probe::Trace);
    // The old per-sink spellings are not aliases.
    EXPECT_EQ(obs::parseSinks("1"), 0u);
    EXPECT_EQ(obs::parseSinks("Trace"), 0u);
    ASSERT_EQ(warns.lines.size(), 3u);
    EXPECT_NE(warns.lines[0].find("'bogus'"), std::string::npos);
    EXPECT_NE(warns.lines[1].find("'1'"), std::string::npos);
}
