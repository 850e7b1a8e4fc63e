/** @file Unit tests for machine configuration and logging. */

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/logging.hh"

using namespace specrt;

namespace
{

/** RAII: route fatal()/panic() into exceptions for the test. */
struct ThrowGuard
{
    ThrowGuard()
    {
        setLogThrowOnFatal(true);
        old = setLogSink([](LogLevel, const std::string &) {});
    }
    ~ThrowGuard()
    {
        setLogThrowOnFatal(false);
        setLogSink(old);
    }
    LogSink old;
};

} // namespace

TEST(Config, DefaultsValidate)
{
    MachineConfig cfg;
    ThrowGuard guard;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, PaperLatenciesAreDefault)
{
    MachineConfig cfg;
    // Component latencies compose to the paper's unloaded round
    // trips: 1 / 12 / 60 / 208 / 291 cycles.
    EXPECT_EQ(cfg.lat.l1Hit, 1u);
    EXPECT_EQ(cfg.lat.l1Hit + cfg.lat.l2Access, 12u);
    EXPECT_EQ(cfg.lat.l1Hit + cfg.lat.l2Access + cfg.lat.dirMemAccess,
              60u);
    EXPECT_EQ(12 + 2 * cfg.lat.netHop + cfg.lat.dirMemAccess, 208u);
    EXPECT_EQ(12 + 3 * cfg.lat.netHop + cfg.lat.dirLookup +
                  cfg.lat.ownerAccess,
              291u);
}

TEST(Config, RejectsBadProcCount)
{
    ThrowGuard guard;
    MachineConfig cfg;
    cfg.numProcs = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.numProcs = 65;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg.numProcs = 100000;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, RejectsNonPow2Caches)
{
    ThrowGuard guard;
    MachineConfig cfg;
    cfg.l1.sizeBytes = 3000;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, RejectsLineMismatch)
{
    ThrowGuard guard;
    MachineConfig cfg;
    cfg.l1.lineBytes = 32;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, RejectsL2SmallerThanL1)
{
    ThrowGuard guard;
    MachineConfig cfg;
    cfg.l2.sizeBytes = 16 * 1024;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(Config, SummaryMentionsGeometry)
{
    MachineConfig cfg;
    std::string s = cfg.summary();
    EXPECT_NE(s.find("16 procs"), std::string::npos);
    EXPECT_NE(s.find("32KB"), std::string::npos);
    EXPECT_NE(s.find("512KB"), std::string::npos);
}

TEST(Logging, SinkCapturesMessages)
{
    std::vector<std::pair<LogLevel, std::string>> captured;
    LogSink old = setLogSink(
        [&](LogLevel level, const std::string &msg) {
            captured.emplace_back(level, msg);
        });
    warn("answer is %d", 42);
    inform("hello %s", "world");
    setLogSink(old);
    ASSERT_EQ(captured.size(), 2u);
    EXPECT_EQ(captured[0].first, LogLevel::Warn);
    EXPECT_EQ(captured[0].second, "answer is 42");
    EXPECT_EQ(captured[1].second, "hello world");
}

TEST(Logging, AssertMacroThrowsWhenArmed)
{
    ThrowGuard guard;
    EXPECT_THROW(
        [] { SPECRT_ASSERT(1 == 2, "math broke: %d", 7); }(),
        FatalError);
    EXPECT_NO_THROW([] { SPECRT_ASSERT(1 == 1, "fine"); }());
}
