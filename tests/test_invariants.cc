/**
 * @file
 * Protocol invariant checker tests: healthy runs stay quiet,
 * hand-planted corruption is caught and reported through the
 * structured ProtocolViolation channel (handler or warn()), and an
 * idle machine passes the quiescence pass.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "mem/dsm.hh"
#include "sim/logging.hh"
#include "spec/invariants.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/** Collects violation identifiers for assertions. */
struct Collector
{
    std::vector<ProtocolViolation> got;

    InvariantChecker::Handler
    handler()
    {
        return [this](const ProtocolViolation &v) { got.push_back(v); };
    }

    bool
    saw(const std::string &invariant) const
    {
        for (const ProtocolViolation &v : got)
            if (v.invariant == invariant)
                return true;
        return false;
    }
};

} // namespace

TEST(Invariants, HealthyHwRunIsQuiet)
{
    Fig1CLoop loop(128, 512, true, 3);
    MachineConfig cfg;
    cfg.numProcs = 8;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.checkInvariants = true;
    LoopExecutor exec(cfg, loop, xc);
    RunResult r = exec.run();
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(r.invariantViolations, 0u);
    ASSERT_NE(exec.invariantChecker(), nullptr);
    EXPECT_GE(exec.invariantChecker()->checks.value(), 1);
}

TEST(Invariants, HealthyPrivRunIsQuiet)
{
    RandomLoopParams rp{64, 64, 3, 0.7, 64, TestType::Priv, 31};
    RandomLoop loop(rp);
    MachineConfig cfg;
    cfg.numProcs = 4;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.checkInvariants = true;
    LoopExecutor exec(cfg, loop, xc);
    RunResult r = exec.run();
    EXPECT_FALSE(r.infraFailed);
    EXPECT_EQ(r.invariantViolations, 0u);
}

TEST(Invariants, HealthySwRunIsQuiet)
{
    Fig1CLoop loop(64, 256, true, 5);
    MachineConfig cfg;
    cfg.numProcs = 4;
    ExecConfig xc;
    xc.mode = ExecMode::SW;
    xc.checkInvariants = true;
    LoopExecutor exec(cfg, loop, xc);
    RunResult r = exec.run();
    EXPECT_TRUE(r.passed);
    EXPECT_EQ(r.invariantViolations, 0u);
}

TEST(Invariants, CorruptedDirtyEntryIsCaught)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 4096, 4, Placement::RoundRobin);
    Addr line = dsm.memory().region(id).base;
    NodeId home = dsm.memory().homeOf(line);

    // Home believes node 1 owns the line dirty, but no cache holds
    // it: a lost WriteReply would look exactly like this.
    DirEntry &e = dsm.dirCtrl(home).directory().entry(line);
    e.state = DirState::Dirty;
    e.owner = 1;

    InvariantChecker ck(dsm);
    Collector col;
    ck.setHandler(col.handler());
    size_t n = ck.checkCoherence();
    EXPECT_GE(n, 1u);
    EXPECT_TRUE(col.saw("dirty-owner-caches"));
    EXPECT_EQ(ck.numViolations(), n);
}

TEST(Invariants, StaleSharedCopyIsCaught)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 4096, 4, Placement::RoundRobin);
    Addr line = dsm.memory().region(id).base;
    NodeId home = dsm.memory().homeOf(line);

    NodeCache &cache = dsm.cacheCtrl(0).cacheArray();
    std::vector<uint8_t> bytes(cache.lineBytes(), 0xAB); // memory is 0
    auto noVictim = [](const L2Set &) {};
    cache.fill(line, LineState::Shared, bytes.data(), noVictim);

    DirEntry &e = dsm.dirCtrl(home).directory().entry(line);
    e.state = DirState::Shared;
    e.addSharer(0);

    InvariantChecker ck(dsm);
    Collector col;
    ck.setHandler(col.handler());
    EXPECT_GE(ck.checkCoherence(), 1u);
    EXPECT_TRUE(col.saw("shared-data"));

    // Fix the data but drop the presence bit: now the holder is
    // invisible to the home.
    dsm.memory().readLine(line, bytes.data(), cache.lineBytes());
    cache.fill(line, LineState::Shared, bytes.data(), noVictim);
    e.sharers = 0;
    col.got.clear();
    EXPECT_GE(ck.checkCoherence(), 1u);
    EXPECT_TRUE(col.saw("shared-presence"));
}

TEST(Invariants, DefaultHandlerWarnsThroughLogSink)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 4096, 4, Placement::RoundRobin);
    Addr line = dsm.memory().region(id).base;
    NodeId home = dsm.memory().homeOf(line);
    DirEntry &e = dsm.dirCtrl(home).directory().entry(line);
    e.state = DirState::Dirty;
    e.owner = 1;

    std::vector<std::string> warned;
    LogSink prev =
        setLogSink([&warned](LogLevel l, const std::string &m) {
            if (l == LogLevel::Warn)
                warned.push_back(m);
        });
    InvariantChecker ck(dsm); // no handler installed
    size_t n = ck.checkCoherence();
    setLogSink(prev);

    EXPECT_GE(n, 1u);
    ASSERT_FALSE(warned.empty());
    EXPECT_NE(warned[0].find("protocol invariant"), std::string::npos);
    EXPECT_NE(warned[0].find("dirty-owner-caches"), std::string::npos);
}

TEST(Invariants, IdleMachineIsQuiesced)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    DsmSystem dsm(cfg);
    InvariantChecker ck(dsm);
    Collector col;
    ck.setHandler(col.handler());
    EXPECT_EQ(ck.checkQuiesced(), 0u);
    EXPECT_EQ(ck.checkAll(), 0u);
    EXPECT_TRUE(col.got.empty());
    EXPECT_GE(ck.checks.value(), 1);
}

TEST(Invariants, ViolationFormatsAsIdAndDetail)
{
    ProtocolViolation v{"dirty-single-owner", "line 0x40 held twice"};
    EXPECT_EQ(v.str(), "dirty-single-owner: line 0x40 held twice");
}
