/**
 * @file
 * Tests for the time-series metrics engine (sim/timeline.hh): the
 * column store's rectangular-matrix invariant, the built-in
 * spec-transition series, CSV shape, heatmap feeds and hot-summary
 * ranking, campaign merge of unequal-length timelines, the
 * RunSampler's clock-hook sampling (no hook when disabled, interval
 * longer than the run, stat resets mid-run, and the
 * no-timing-perturbation guarantee), configuration through
 * SPECRT_OBS and obs::apply(), and an end-to-end HW abort whose
 * export must carry Perfetto counter tracks plus a hot-node
 * attribution of the conflicting element.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/loop_exec.hh"
#include "obs/sinks.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/sim_context.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "sim/trace.hh"
#include "sim/trace_export.hh"
#include "support/json_checker.hh"
#include "workloads/microloops.hh"

using namespace specrt;
using test_support::validJson;

namespace
{

/**
 * Each test runs in a private SimContext, so its timeline starts
 * disabled and empty and the process-level context is untouched.
 */
class TimelineTest : public ::testing::Test
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

    timeline::Timeline &tl() { return timeline::current(); }

    SimContext ctx;
    std::unique_ptr<ScopedSimContext> scoped;
};

const timeline::Timeline::Series *
findSeries(const timeline::Timeline &t, const std::string &name)
{
    for (const timeline::Timeline::Series &s : t.allSeries())
        if (s.name == name)
            return &s;
    return nullptr;
}

using Row = std::vector<std::pair<std::string, double>>;

} // namespace

// --- column store -----------------------------------------------------

TEST_F(TimelineTest, DisabledByDefaultAndFeedsAreNoOps)
{
    EXPECT_FALSE(timeline::enabled());
    EXPECT_FALSE(tl().isOn());
    timeline::dirAccess(0, 0x40);
    timeline::dirQueued(1, 0x40);
    timeline::dirConflict(2, 0x40);
    timeline::specTransition();
    EXPECT_TRUE(tl().heatMap().empty());
    EXPECT_EQ(tl().numSamples(), 0u);
}

TEST_F(TimelineTest, EnableSetsTheLatchAndDisableClearsIt)
{
    tl().enable(100);
    EXPECT_TRUE(timeline::enabled());
    EXPECT_EQ(tl().interval(), 100u);
    tl().disable();
    EXPECT_FALSE(timeline::enabled());
    // Zero interval falls back to the default.
    tl().enable(0);
    EXPECT_EQ(tl().interval(),
              timeline::Timeline::defaultIntervalTicks);
}

TEST_F(TimelineTest, SampleKeepsTheMatrixRectangular)
{
    timeline::Timeline &t = tl();
    t.sample(10, 0, Row{{"a", 1.0}});
    // Series "b" first appears at row 1: it must be zero-backfilled
    // for row 0, and "a" must read 0 at row 1.
    t.sample(20, 0, Row{{"b", 2.0}});
    EXPECT_EQ(t.numSamples(), 2u);
    for (const timeline::Timeline::Series &s : t.allSeries())
        ASSERT_EQ(s.values.size(), t.numSamples()) << s.name;

    const timeline::Timeline::Series *a = findSeries(t, "a");
    const timeline::Timeline::Series *b = findSeries(t, "b");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->values[0], 1.0);
    EXPECT_EQ(a->values[1], 0.0);
    EXPECT_EQ(b->values[0], 0.0);
    EXPECT_EQ(b->values[1], 2.0);
}

TEST_F(TimelineTest, BuiltInSpecTransitionSeriesCountsSinceLastSample)
{
    tl().enable(100);
    timeline::specTransition();
    timeline::specTransition();
    timeline::specTransition();
    tl().sample(5, 0, Row{});
    tl().sample(6, 0, Row{});
    // A run with zero registered groups and zero gauges still
    // produces a non-degenerate matrix: the built-in series.
    EXPECT_EQ(tl().numSeries(), 1u);
    const timeline::Timeline::Series *s =
        findSeries(tl(), "spec.transitions");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->values.size(), 2u);
    EXPECT_EQ(s->values[0], 3.0); // accumulated, then cleared
    EXPECT_EQ(s->values[1], 0.0);
}

TEST_F(TimelineTest, CsvIsExactlyTheMatrixPlusHeatFooter)
{
    tl().enable(100);
    tl().sample(10, 0, Row{{"net.in_flight", 2.0}});
    tl().sample(20, 0, Row{});
    tl().noteDirAccess(1, 0x80); // bucket 0x80 >> 6 = 0x2
    EXPECT_EQ(tl().csv(),
              "tick,run,net.in_flight,spec.transitions\n"
              "10,0,2,0\n"
              "20,0,0,0\n"
              "# heat home=1 bucket=0x2 accesses=1 queued=0 "
              "conflicts=0\n");
}

TEST_F(TimelineTest, MergeOfUnequalLengthTimelinesOffsetsRunIds)
{
    timeline::Timeline a;
    timeline::Timeline b;
    uint32_t ra = a.beginRun();
    a.sample(10, ra, Row{{"x", 1.0}});
    a.sample(20, ra, Row{{"x", 2.0}});
    a.noteDirConflict(0, 0x10);
    uint32_t rb = b.beginRun();
    b.sample(5, rb, Row{{"y", 7.0}});
    b.noteDirConflict(0, 0x10);
    b.noteDirQueued(2, 0x100);

    a.merge(b);

    // Rows: a's two, then b's one with its run id offset past a's.
    ASSERT_EQ(a.numSamples(), 3u);
    EXPECT_EQ(a.sampleTicks(), (std::vector<Tick>{10, 20, 5}));
    EXPECT_EQ(a.sampleRuns(), (std::vector<uint32_t>{0, 0, 1}));

    // Series union, zero-backfilled on both sides.
    for (const timeline::Timeline::Series &s : a.allSeries())
        ASSERT_EQ(s.values.size(), 3u) << s.name;
    const timeline::Timeline::Series *x = findSeries(a, "x");
    const timeline::Timeline::Series *y = findSeries(a, "y");
    ASSERT_NE(x, nullptr);
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(x->values, (std::vector<double>{1.0, 2.0, 0.0}));
    EXPECT_EQ(y->values, (std::vector<double>{0.0, 0.0, 7.0}));

    // Heat cells sum.
    auto conflictCell = a.heatMap().find({NodeId(0), Addr(0)});
    ASSERT_NE(conflictCell, a.heatMap().end());
    EXPECT_EQ(conflictCell->second.conflicts, 2u);
    auto queuedCell = a.heatMap().find({NodeId(2), Addr(0x100 >> 6)});
    ASSERT_NE(queuedCell, a.heatMap().end());
    EXPECT_EQ(queuedCell->second.queued, 1u);
}

TEST_F(TimelineTest, HotSummaryRanksConflictsOverRawTraffic)
{
    timeline::Timeline &t = tl();
    EXPECT_EQ(t.hotSummary(), "");
    // Node 1 is busy, node 2 had the actual conflict: node 2 wins.
    for (int i = 0; i < 10; ++i)
        t.noteDirAccess(1, 0x40);
    t.noteDirConflict(2, 0x200);
    std::string hot = t.hotSummary();
    EXPECT_NE(hot.find("directory contention summary"),
              std::string::npos);
    size_t n2 = hot.find("node 2:");
    size_t n1 = hot.find("node 1:");
    ASSERT_NE(n2, std::string::npos);
    ASSERT_NE(n1, std::string::npos);
    EXPECT_LT(n2, n1);
    EXPECT_NE(hot.find("hot elements"), std::string::npos);
}

// --- RunSampler -------------------------------------------------------

TEST_F(TimelineTest, SamplerIsInertWhenTheTimelineIsDisabled)
{
    EventQueue eq;
    timeline::RunSampler s(eq);
    EXPECT_FALSE(s.active());
    s.addGauge("g", []() { return 1.0; });
    eq.schedule(10, []() {});
    eq.run();
    s.finish();
    EXPECT_EQ(tl().numSamples(), 0u);
}

TEST_F(TimelineTest, SamplerSamplesOnTheGridWhileWorkIsPending)
{
    tl().enable(10);
    EventQueue eq;
    double g = 0;
    timeline::RunSampler s(eq);
    ASSERT_TRUE(s.active());
    s.addGauge("g", [&]() { return g; });
    for (Tick t : {Tick(5), Tick(15), Tick(25), Tick(35)})
        eq.schedule(t, [&g, t]() { g = static_cast<double>(t); });
    eq.run();
    // Grid points 10/20/30 fall inside the run; 40 does not.
    EXPECT_EQ(eq.curTick(), 35u);
    ASSERT_EQ(tl().numSamples(), 3u);
    EXPECT_EQ(tl().sampleTicks(), (std::vector<Tick>{10, 20, 30}));
    s.finish();
    ASSERT_EQ(tl().numSamples(), 4u);
    EXPECT_EQ(tl().sampleTicks().back(), 35u);
    const timeline::Timeline::Series *gs = findSeries(tl(), "g");
    ASSERT_NE(gs, nullptr);
    EXPECT_EQ(gs->values, (std::vector<double>{5, 15, 25, 35}));
    // All rows belong to the sampler's single run.
    for (uint32_t r : tl().sampleRuns())
        EXPECT_EQ(r, 0u);
}

TEST_F(TimelineTest, IntervalLongerThanTheRunStillRecordsAFinalRow)
{
    tl().enable(5000);
    EventQueue eq;
    timeline::RunSampler s(eq);
    s.addGauge("g", []() { return 1.0; });
    eq.schedule(20, []() {});
    eq.run();
    // The sampling grid must NOT drag the drain (and the measured
    // phase end) out to tick 5000.
    EXPECT_EQ(eq.curTick(), 20u);
    EXPECT_EQ(tl().numSamples(), 0u);
    s.finish();
    ASSERT_EQ(tl().numSamples(), 1u);
    EXPECT_EQ(tl().sampleTicks()[0], 20u);
}

TEST_F(TimelineTest, StatResetMidRunDoesNotProduceNegativeDeltas)
{
    tl().enable(10);
    EventQueue eq;
    StatGroup g("g");
    Scalar c(&g, "c", "a counter");
    timeline::RunSampler s(eq);
    s.addStatDelta(g);
    eq.schedule(5, [&]() { c = 5; });
    eq.schedule(15, [&]() {
        g.resetStats(); // mid-run reset...
        c = 2;          // ...then the counter starts over
    });
    eq.schedule(25, []() {});
    eq.run();
    s.finish();
    const timeline::Timeline::Series *d =
        findSeries(tl(), "delta.g.c");
    ASSERT_NE(d, nullptr);
    // Sample at 10: delta 5. Sample at 20: the value shrank (reset),
    // so the counter-reset rule restarts from the new absolute value
    // instead of reporting -3. Final row at 25: no change.
    EXPECT_EQ(d->values, (std::vector<double>{5.0, 2.0, 0.0}));
    for (double v : d->values)
        EXPECT_GE(v, 0.0);
}

TEST_F(TimelineTest, SamplerWithNothingRegisteredStillProducesRows)
{
    tl().enable(10);
    EventQueue eq;
    timeline::RunSampler s(eq);
    for (Tick t = 1; t <= 25; ++t)
        eq.schedule(t, []() {});
    eq.run();
    s.finish();
    EXPECT_EQ(tl().numSeries(), 1u);
    EXPECT_NE(findSeries(tl(), "spec.transitions"), nullptr);
    EXPECT_EQ(tl().numSamples(), 3u); // 10, 20, final at 25
    EXPECT_EQ(tl().csv().substr(0, 26),
              "tick,run,spec.transitions\n");
}

// --- config / env -----------------------------------------------------

TEST(TimelineConfigTest, FromEnvParsesTheKnobs)
{
    // The timeline is the "timeline" token of SPECRT_OBS and its file
    // goes to SPECRT_OBS_DIR; the old SPECRT_TIMELINE* names are not
    // aliases, and the sampling interval has no knob.
    unsetenv("SPECRT_OBS");
    unsetenv("SPECRT_OBS_DIR");
    setenv("SPECRT_TIMELINE", "run.csv", 1);
    setenv("SPECRT_TIMELINE_INTERVAL", "250", 1);
    EXPECT_EQ(obs::readEnvSpec().sinks, 0u);
    EXPECT_TRUE(obs::readEnvSpec().dir.empty());

    setenv("SPECRT_OBS", "0", 1);
    EXPECT_EQ(obs::readEnvSpec().sinks, 0u);

    setenv("SPECRT_OBS", "timeline", 1);
    obs::Spec on = obs::readEnvSpec();
    EXPECT_EQ(on.sinks, probe::Timeline);
    EXPECT_TRUE(on.dir.empty()); // record only

    SimContext ctx;
    obs::apply(ctx, on);
    EXPECT_EQ(ctx.sinks.on(), probe::Timeline);
    EXPECT_EQ(ctx.sinks.timeline.interval(),
              timeline::Timeline::defaultIntervalTicks);

    setenv("SPECRT_OBS", "trace, timeline", 1);
    setenv("SPECRT_OBS_DIR", "run", 1);
    obs::Spec both = obs::readEnvSpec();
    EXPECT_EQ(both.sinks, probe::Trace | probe::Timeline);
    EXPECT_EQ(both.dir, "run");

    unsetenv("SPECRT_OBS");
    unsetenv("SPECRT_OBS_DIR");
    unsetenv("SPECRT_TIMELINE");
    unsetenv("SPECRT_TIMELINE_INTERVAL");
}

// --- configuration ---------------------------------------------------

TEST_F(TimelineTest, ApplyConfigEnablesWithIntervalAndOutPath)
{
    // obs::apply() is how a context's sinks are configured: the
    // timeline comes on at the default sampling interval and the
    // context remembers the directory its timeline.csv goes to.
    obs::apply(ctx, {probe::Timeline, "x"});
    EXPECT_TRUE(timeline::enabled());
    EXPECT_EQ(tl().interval(), timeline::Timeline::defaultIntervalTicks);
    EXPECT_EQ(ctx.obsDir, "x");
    ctx.obsDir.clear();
}

// --- instance scoping -------------------------------------------------

TEST_F(TimelineTest, ScopedContextSwitchesTheCurrentTimeline)
{
    tl().enable(100);
    EXPECT_TRUE(timeline::enabled());
    SimContext inner;
    {
        ScopedSimContext active(inner);
        // The inner context's timeline is off; the latch followed.
        EXPECT_FALSE(timeline::enabled());
        timeline::dirAccess(0, 0x40); // gated: no-op
        EXPECT_TRUE(inner.sinks.timeline.heatMap().empty());
    }
    EXPECT_TRUE(timeline::enabled());
    EXPECT_EQ(&timeline::current(), &ctx.sinks.timeline);
}

// --- exports ---------------------------------------------------------

TEST_F(TimelineTest, CounterTrackValuesKeepEveryDigit)
{
    timeline::Timeline t;
    t.sample(10, 0, {{"net.msgs", 1234567.0}, {"ratio", 0.5}});
    std::string json = trace::chromeTraceJson(trace::buffer(), &t);
    EXPECT_NE(json.find("\"value\": 1234567,"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"value\": 0.5,"), std::string::npos) << json;
    EXPECT_NE(t.csv().find("\n10,0,1234567,0.5,"), std::string::npos)
        << t.csv();
}

// --- end to end -------------------------------------------------------

TEST_F(TimelineTest, EnabledTimelineDoesNotChangeSimulatedTiming)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.blockIters = 2;

    Tick base;
    PhaseTimes base_phases;
    uint64_t base_events;
    {
        Fig1ALoop loop(32);
        LoopExecutor exec(cfg, loop, xc);
        RunResult r = exec.run();
        base = r.totalTicks;
        base_phases = r.phases;
        base_events = r.eventsFired;
    }

    tl().enable(100);
    {
        Fig1ALoop loop(32);
        LoopExecutor exec(cfg, loop, xc);
        RunResult r = exec.run();
        // The sampler must not perturb modeled time: phase
        // durations are read off curTick after each drain. Its clock
        // hook is not an event, so the run fires the same events.
        EXPECT_EQ(r.totalTicks, base);
        EXPECT_EQ(r.phases.loop, base_phases.loop);
        EXPECT_EQ(r.phases.serial, base_phases.serial);
        EXPECT_EQ(r.eventsFired, base_events);
    }
    EXPECT_GT(tl().numSamples(), 0u);
}

TEST_F(TimelineTest, HwAbortYieldsCounterTracksAndHotNodeAttribution)
{
    // Fig. 1(a): every iteration reads the element the previous one
    // wrote, so HW speculation aborts; with trace + timeline on, the
    // export must carry counter tracks on the trace's timebase and
    // the hot summary must name the home of the conflicting element.
    MachineConfig cfg;
    cfg.numProcs = 8;
    trace::buffer().enable();
    tl().enable(50);
    Fig1ALoop loop(64);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.blockIters = 2;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();
    EXPECT_FALSE(res.passed);
    ASSERT_TRUE(res.hwFailure.failed);

    timeline::Timeline &t = tl();
    EXPECT_GT(t.numSamples(), 0u);
    EXPECT_GE(t.numSeries(), 3u);

    // The abort fed the heatmap at the failing element's home node.
    NodeId home = exec.machine().memory().homeOf(res.hwFailure.elemAddr);
    auto cell = t.heatMap().find(
        {home, res.hwFailure.elemAddr >>
                   timeline::Timeline::bucketShift});
    ASSERT_NE(cell, t.heatMap().end());
    EXPECT_GE(cell->second.conflicts, 1u);

    std::string hot = t.hotSummary();
    std::ostringstream want;
    want << "node " << home << ":";
    EXPECT_NE(hot.find("directory contention summary"),
              std::string::npos);
    EXPECT_NE(hot.find(want.str()), std::string::npos);

    // One JSON document: trace events AND >= 3 counter tracks.
    std::string json =
        trace::chromeTraceJson(trace::buffer(), &t);
    ASSERT_TRUE(validJson(json));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
    EXPECT_NE(json.find("ABORT"), std::string::npos);
    size_t tracks = 0;
    for (const timeline::Timeline::Series &s : t.allSeries())
        if (json.find("\"name\": \"" + s.name + "\"") !=
            std::string::npos)
            ++tracks;
    EXPECT_GE(tracks, 3u);
}
