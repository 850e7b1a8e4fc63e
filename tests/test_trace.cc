/**
 * @file
 * Tests for the protocol trace subsystem (sim/trace.hh): ring
 * mechanics, op/category naming (including the EventKind reuse),
 * abort-cause attribution, the SPECRT_OBS trace knob, the Chrome
 * trace-event JSON exporter (validated with an in-test JSON parser)
 * and its trace.json sink file, and an end-to-end HW abort that must
 * come back fully attributed.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/loop_exec.hh"
#include "obs/sinks.hh"
#include "sim/sim_context.hh"
#include "sim/trace.hh"
#include "sim/trace_export.hh"
#include "support/json_checker.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/**
 * Each test owns this thread's current-context ring: start disabled
 * and empty, leave it disabled and empty.
 */
class TraceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::buffer().disable();
        trace::buffer().clear();
    }

    void
    TearDown() override
    {
        trace::buffer().disable();
        trace::buffer().clear();
    }
};

trace::TraceRecord
rec(Tick tick, trace::TraceOp op, NodeId node, IterNum iter,
    Addr addr = invalidAddr, const char *label = nullptr)
{
    trace::TraceRecord r;
    r.tick = tick;
    r.op = op;
    r.node = node;
    r.iter = iter;
    r.addr = addr;
    r.label = label;
    return r;
}

using test_support::validJson;

} // namespace

// --- naming / EventKind reuse (satellite: no parallel enum) -----------

TEST(TraceNames, EveryEventKindHasAUniqueName)
{
    std::set<std::string> seen;
    for (size_t k = 0; k < numEventKinds; ++k) {
        const char *n = eventKindName(static_cast<EventKind>(k));
        ASSERT_NE(n, nullptr);
        EXPECT_STRNE(n, "?");
        EXPECT_TRUE(seen.insert(n).second)
            << "duplicate EventKind name " << n;
    }
    EXPECT_STREQ(eventKindName(EventKind::Spec), "spec");
}

TEST(TraceNames, EveryOpHasANameAndAnEventKindCategory)
{
    std::set<std::string> seen;
    for (size_t o = 0; o < trace::numTraceOps; ++o) {
        auto op = static_cast<trace::TraceOp>(o);
        const char *n = trace::traceOpName(op);
        ASSERT_NE(n, nullptr);
        EXPECT_STRNE(n, "?") << "unnamed op " << o;
        EXPECT_TRUE(seen.insert(n).second)
            << "duplicate op name " << n;
        // The category axis IS the event engine's EventKind -- no
        // subsystem may fall outside it.
        EventKind k = trace::opCategory(op);
        EXPECT_LT(static_cast<size_t>(k), numEventKinds);
        EXPECT_STRNE(eventKindName(k), "?");
    }
    EXPECT_EQ(trace::opCategory(trace::TraceOp::SpecBit),
              EventKind::Spec);
    EXPECT_EQ(trace::opCategory(trace::TraceOp::MsgSend),
              EventKind::Network);
}

// --- ring mechanics ---------------------------------------------------

TEST_F(TraceTest, DisabledByDefaultAndEmitIsANoOp)
{
    EXPECT_FALSE(trace::enabled());
    trace::TraceBuffer &b = trace::buffer();
    b.emit(rec(1, trace::TraceOp::IterBegin, 0, 1));
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(b.recorded(), 0u);
}

TEST_F(TraceTest, EmitKeepsOrderAndStampsLoopId)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(8);
    b.setLoop(7);
    b.emit(rec(10, trace::TraceOp::IterBegin, 0, 1));
    b.emit(rec(20, trace::TraceOp::IterEnd, 0, 1));
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b.at(0).tick, 10u);
    EXPECT_EQ(b.at(0).loop, 7u);
    EXPECT_EQ(b.at(1).tick, 20u);
    EXPECT_EQ(b.dropped(), 0u);
}

TEST_F(TraceTest, RingWrapsOverwritingOldestAndCountsDrops)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(4);
    for (Tick t = 1; t <= 10; ++t)
        b.emit(rec(t, trace::TraceOp::IterBegin, 0, 1));
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.recorded(), 10u);
    EXPECT_EQ(b.dropped(), 6u);
    // Oldest-first iteration sees ticks 7..10.
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(b.at(i).tick, 7u + i);
}

TEST_F(TraceTest, BitAndStampHelpersSkipNoChange)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(8);
    const trace::Access acc{10, 1, 0x40, 3};
    trace::specBits(acc, false, 0x5, 0x5); // unchanged: no record
    trace::timeStamp(acc, trace::TsStamp::MinW, 4, 4);
    EXPECT_EQ(b.size(), 0u);
    trace::specBits(acc, true, 0x0, 0x3);
    trace::timeStamp(acc, trace::TsStamp::MinW, 0, 4);
    ASSERT_EQ(b.size(), 2u);
    EXPECT_EQ(b.at(0).op, trace::TraceOp::SpecBit);
    EXPECT_EQ(b.at(0).tick, 10u);
    EXPECT_EQ(b.at(0).node, 1);
    EXPECT_EQ(b.at(0).iter, 3);
    EXPECT_EQ(b.at(0).addr, 0x40u);
    EXPECT_STREQ(b.at(0).label, "write");
    EXPECT_EQ(b.at(1).op, trace::TraceOp::TimeStamp);
    EXPECT_EQ(b.at(1).iter, 3);
    EXPECT_STREQ(b.at(1).label, "MinW");
}

// --- abort attribution ------------------------------------------------

TEST(TraceRules, DetectorReasonsMapToPaperRules)
{
    EXPECT_NE(std::string(trace::violatedRule(
                  "read of element written by another processor"))
                  .find("§3.2"),
              std::string::npos);
    EXPECT_NE(std::string(trace::violatedRule(
                  "read-first iteration after a writing iteration "
                  "(flow dependence)"))
                  .find("§3.3"),
              std::string::npos);
    // Unknown reasons still get a pointer at the paper.
    EXPECT_NE(std::string(trace::violatedRule("some new detector"))
                  .find("§3.2"),
              std::string::npos);
    EXPECT_NE(trace::violatedRule(nullptr), nullptr);
}

TEST(TraceRules, EveryDetectorReasonIsMapped)
{
    // The exact reason literals fail() is called with, across
    // spec/nonpriv.cc, spec/priv.cc, and the executor's reduction
    // hook. Each must land on a specific rule, not the unmapped
    // fallback.
    const char *reasons[] = {
        "read of element written by another processor",
        "write of element read or written by another processor",
        "write fill of element accessed by another processor",
        "read fill of element written by another processor",
        "race between two First_updates: loser already wrote",
        "read request for element written by another processor",
        "write request for element accessed by another processor",
        "race between a First_update and a write",
        "race between a ROnly_update and a write",
        "contradictory First merge: two first accessors",
        "merged state: element both written and read-shared",
        "read-first iteration after a writing iteration "
        "(flow dependence)",
        "writing iteration before a read-first iteration "
        "(flow dependence)",
        "non-reduction access to an array under the reduction test",
    };
    for (const char *r : reasons) {
        std::string rule = trace::violatedRule(r);
        EXPECT_EQ(rule.find("unmapped"), std::string::npos)
            << "no rule for detector reason: " << r;
    }
}

TEST_F(TraceTest, AttributeAbortFindsTheConflictingPair)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(16);
    const Addr elem = 0x80;
    // Node 0 iter 2 wrote the element...
    auto w = rec(10, trace::TraceOp::SpecBit, 0, 2, elem, "write");
    w.sub = 1;
    b.emit(w);
    // ...unrelated traffic on another element...
    b.emit(rec(11, trace::TraceOp::SpecBit, 1, 3, 0x90, "read"));
    // ...node 1 iter 5 then read it (the access that trips).
    b.emit(rec(12, trace::TraceOp::SpecBit, 1, 5, elem, "read"));

    trace::AbortCause c = trace::attributeAbort(
        b, elem, 1, 5, "read of element written by another processor",
        12);
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.elemAddr, elem);
    EXPECT_EQ(c.failNode, 1);
    EXPECT_EQ(c.failIter, 5);
    ASSERT_TRUE(c.haveFailing);
    EXPECT_EQ(c.failing.tick, 12u);
    ASSERT_TRUE(c.haveEarlier);
    EXPECT_EQ(c.earlier.tick, 10u);
    EXPECT_EQ(c.earlier.node, 0);
    EXPECT_EQ(c.earlier.iter, 2);
    EXPECT_NE(std::string(c.rule).find("§3.2"), std::string::npos);

    std::string report = c.str();
    EXPECT_NE(report.find("element 0x80"), std::string::npos);
    EXPECT_NE(report.find("iteration 5"), std::string::npos);
    EXPECT_NE(report.find("earlier:"), std::string::npos);
}

TEST_F(TraceTest, AttributeAbortSurvivesAnEmptyRing)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(4);
    trace::AbortCause c =
        trace::attributeAbort(b, 0x40, 2, 7, "write raced", 99);
    EXPECT_TRUE(c.valid);
    EXPECT_FALSE(c.haveFailing);
    EXPECT_FALSE(c.haveEarlier);
    EXPECT_NE(c.str().find("not in the trace ring"),
              std::string::npos);
}

// --- config / env -----------------------------------------------------

TEST(TraceConfigTest, FromEnvParsesTheKnobs)
{
    // The trace is the "trace" token of SPECRT_OBS and its file goes
    // to SPECRT_OBS_DIR; the old SPECRT_TRACE* names are not aliases.
    unsetenv("SPECRT_OBS");
    unsetenv("SPECRT_OBS_DIR");
    setenv("SPECRT_TRACE", "run.json", 1);
    setenv("SPECRT_TRACE_CAPACITY", "1024", 1);
    EXPECT_EQ(obs::readEnvSpec().sinks, 0u);
    EXPECT_TRUE(obs::readEnvSpec().dir.empty());

    setenv("SPECRT_OBS", "0", 1);
    EXPECT_EQ(obs::readEnvSpec().sinks, 0u);

    setenv("SPECRT_OBS", "trace", 1);
    obs::Spec on = obs::readEnvSpec();
    EXPECT_EQ(on.sinks, probe::Trace);
    EXPECT_TRUE(on.dir.empty()); // record only

    SimContext ctx;
    obs::apply(ctx, on);
    EXPECT_EQ(ctx.sinks.on(), probe::Trace);
    EXPECT_EQ(ctx.sinks.trace.capacity(),
              trace::TraceBuffer::defaultCapacity);

    setenv("SPECRT_OBS_DIR", "run", 1);
    EXPECT_EQ(obs::readEnvSpec().dir, "run");

    unsetenv("SPECRT_OBS");
    unsetenv("SPECRT_OBS_DIR");
    unsetenv("SPECRT_TRACE");
    unsetenv("SPECRT_TRACE_CAPACITY");
}

// --- JSON exporter ----------------------------------------------------

TEST_F(TraceTest, ChromeTraceJsonIsParseableAndCarriesTheEvents)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(32);
    b.setLoop(1);
    b.emit(rec(5, trace::TraceOp::LoopBegin, invalidNode, 0,
               invalidAddr, "HW"));
    b.emit(rec(10, trace::TraceOp::IterBegin, 0, 1));
    auto send = rec(12, trace::TraceOp::MsgSend, 0, 1, 0x40, "ReadReq");
    send.peer = 1;
    send.b = 77; // flow id
    b.emit(send);
    auto recv = send;
    recv.op = trace::TraceOp::MsgRecv;
    recv.tick = 20;
    recv.node = 1;
    recv.peer = 0;
    b.emit(recv);
    b.emit(rec(25, trace::TraceOp::IterEnd, 0, 1));
    b.emit(rec(30, trace::TraceOp::Abort, 0, 1, 0x40,
               "read of element written by another processor"));
    b.emit(rec(31, trace::TraceOp::LoopEnd, invalidNode, 0,
               invalidAddr, "failed"));

    std::string json = trace::chromeTraceJson(b);
    ASSERT_TRUE(validJson(json)) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos); // flow out
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos); // flow in
    EXPECT_NE(json.find("ABORT"), std::string::npos);
    EXPECT_NE(json.find("ReadReq"), std::string::npos);
}

TEST_F(TraceTest, ExportFileRoundTrips)
{
    obs::Sinks sinks;
    sinks.trace.enable(8);
    sinks.trace.emit(rec(1, trace::TraceOp::IterBegin, 0, 1));
    std::string dir = ::testing::TempDir() + "/specrt_trace_roundtrip";
    ASSERT_TRUE(obs::exportTo(sinks, dir, stdout));
    std::string path = dir + "/trace.json";
    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::ostringstream buf;
    buf << is.rdbuf();
    EXPECT_TRUE(validJson(buf.str()));
    EXPECT_EQ(buf.str(), trace::chromeTraceJson(sinks.trace));
    std::remove(path.c_str());
}

// --- end to end -------------------------------------------------------

TEST_F(TraceTest, HwAbortComesBackFullyAttributed)
{
    // Fig. 1(a): A(i) = A(i) + A(i-1) -- every iteration reads the
    // element the previous one wrote, so HW speculation must abort
    // and the trace must say why.
    MachineConfig cfg;
    cfg.numProcs = 8;
    trace::buffer().enable();
    Fig1ALoop loop(64);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.blockIters = 2;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();

    EXPECT_FALSE(res.passed);
    ASSERT_TRUE(res.hwFailure.failed);

    const trace::AbortCause &c = res.hwFailure.cause;
    ASSERT_TRUE(c.valid);
    EXPECT_EQ(c.elemAddr, res.hwFailure.elemAddr);
    EXPECT_EQ(c.failNode, res.hwFailure.node);
    EXPECT_GT(c.failIter, 0);
    ASSERT_NE(c.rule, nullptr);
    EXPECT_NE(std::string(c.rule).find("§3.2"), std::string::npos);
    // The conflicting earlier access was reconstructed, and it really
    // is a different iteration's doing.
    ASSERT_TRUE(c.haveEarlier);
    EXPECT_TRUE(c.earlier.node != c.failNode ||
                c.earlier.iter != c.failIter);
    EXPECT_EQ(c.earlier.addr, c.elemAddr);

    // The ring holds the synthesized Abort record...
    trace::TraceBuffer &b = trace::buffer();
    bool have_abort = false;
    bool have_grant = false;
    bool have_msg = false;
    for (size_t i = 0; i < b.size(); ++i) {
        const trace::TraceRecord &r = b.at(i);
        have_abort |= r.op == trace::TraceOp::Abort;
        have_grant |= r.op == trace::TraceOp::Grant;
        have_msg |= r.op == trace::TraceOp::MsgSend;
    }
    EXPECT_TRUE(have_abort);
    EXPECT_TRUE(have_grant);
    EXPECT_TRUE(have_msg);

    // ...and the full export is valid Chrome trace-event JSON.
    std::string json = trace::chromeTraceJson(b);
    EXPECT_TRUE(validJson(json));
    EXPECT_NE(json.find("ABORT"), std::string::npos);
}

TEST_F(TraceTest, DisabledRunRecordsNothing)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    Fig1ALoop loop(16);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();
    ASSERT_TRUE(res.hwFailure.failed);
    EXPECT_FALSE(res.hwFailure.cause.valid);
    EXPECT_EQ(trace::buffer().recorded(), 0u);
}

// --- ring edge cases --------------------------------------------------

TEST_F(TraceTest, WrapAtExactCapacityIsNotADrop)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(4);
    for (Tick t = 1; t <= 4; ++t)
        b.emit(rec(t, trace::TraceOp::IterBegin, 0, 1));
    // Exactly full: the head wrapped to slot 0 but nothing was lost.
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.recorded(), 4u);
    EXPECT_EQ(b.dropped(), 0u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(b.at(i).tick, 1u + i);
    // One more now overwrites the oldest.
    b.emit(rec(5, trace::TraceOp::IterBegin, 0, 1));
    EXPECT_EQ(b.size(), 4u);
    EXPECT_EQ(b.dropped(), 1u);
    EXPECT_EQ(b.at(0).tick, 2u);
    EXPECT_EQ(b.at(3).tick, 5u);
}

TEST_F(TraceTest, CapacityZeroIsCoercedToOne)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(0);
    EXPECT_EQ(b.capacity(), 1u);
    EXPECT_TRUE(b.isOn());
    b.emit(rec(1, trace::TraceOp::IterBegin, 0, 1));
    EXPECT_EQ(b.size(), 1u);
}

TEST_F(TraceTest, CapacityOneRetainsOnlyTheNewestRecord)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(1);
    for (Tick t = 1; t <= 5; ++t)
        b.emit(rec(t, trace::TraceOp::IterBegin, 0, 1));
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b.at(0).tick, 5u);
    EXPECT_EQ(b.recorded(), 5u);
    EXPECT_EQ(b.dropped(), 4u);
}

TEST_F(TraceTest, AttributeAbortSurvivesOverwrittenCausingRecord)
{
    trace::TraceBuffer &b = trace::buffer();
    b.enable(4);
    const Addr elem = 0x80;
    // The conflicting earlier write...
    auto w = rec(1, trace::TraceOp::SpecBit, 0, 2, elem, "write");
    w.sub = 1;
    b.emit(w);
    // ...is pushed out of the ring by unrelated traffic.
    for (Tick t = 2; t <= 6; ++t)
        b.emit(rec(t, trace::TraceOp::SpecBit, 1, 3, 0x90, "read"));
    // The failing read is recent enough to survive.
    b.emit(rec(7, trace::TraceOp::SpecBit, 1, 5, elem, "read"));

    trace::AbortCause c = trace::attributeAbort(
        b, elem, 1, 5, "read of element written by another processor",
        7);
    ASSERT_TRUE(c.valid);
    EXPECT_TRUE(c.haveFailing);
    EXPECT_FALSE(c.haveEarlier);
    EXPECT_NE(c.str().find("not in the trace ring"),
              std::string::npos);
}

// --- instance scoping -------------------------------------------------

TEST_F(TraceTest, StandaloneBuffersAreIndependent)
{
    trace::TraceBuffer b1;
    trace::TraceBuffer b2;
    b1.enable(4);
    b2.enable(4);
    b1.emit(rec(1, trace::TraceOp::IterBegin, 0, 1));
    EXPECT_EQ(b1.size(), 1u);
    EXPECT_EQ(b2.size(), 0u);
    // Enabling a standalone ring does not switch the hot-path guard
    // on: that tracks the CURRENT CONTEXT's ring only.
    EXPECT_FALSE(trace::enabled());
}

TEST_F(TraceTest, ScopedSimContextSwitchesTheCurrentRing)
{
    trace::TraceBuffer &outer = trace::buffer();
    outer.enable(8);
    EXPECT_TRUE(trace::enabled());

    SimContext inner;
    {
        ScopedSimContext active(inner);
        // The inner context's ring is off and empty; the guard must
        // have followed the context switch.
        EXPECT_FALSE(trace::enabled());
        EXPECT_EQ(&trace::buffer(), &inner.sinks.trace);
        trace::buffer().enable(4);
        EXPECT_TRUE(trace::enabled());
        trace::buffer().emit(rec(1, trace::TraceOp::IterBegin, 0, 1));
        EXPECT_EQ(trace::buffer().size(), 1u);
    }
    // Back outside: the outer ring, still enabled, still empty.
    EXPECT_TRUE(trace::enabled());
    EXPECT_EQ(&trace::buffer(), &outer);
    EXPECT_EQ(outer.size(), 0u);
    EXPECT_EQ(inner.sinks.trace.size(), 1u);
}

TEST_F(TraceTest, LoopIdsArePerContext)
{
    SimContext a;
    SimContext b;
    uint32_t a1, a2, b1;
    {
        ScopedSimContext active(a);
        a1 = trace::nextLoopId();
        a2 = trace::nextLoopId();
    }
    {
        ScopedSimContext active(b);
        b1 = trace::nextLoopId();
    }
    EXPECT_EQ(a2, a1 + 1);
    // A fresh context starts its ids over: two campaign jobs built
    // from the same seed must stamp identical loop ids.
    EXPECT_EQ(b1, a1);
}
