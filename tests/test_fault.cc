/**
 * @file
 * Fault-injection framework tests: FaultPlan determinism and
 * eligibility, FaultConfig validation, watchdog-driven recovery of
 * dropped messages, infra-failure (not panic) when the retry budget
 * is exhausted, and the HW -> SW -> Serial degradation ladder.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <vector>

#include "core/loop_exec.hh"
#include "mem/msg.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/** A moderate fault mix every run recovers from. */
FaultConfig
moderateFaults(uint64_t seed)
{
    FaultConfig f;
    f.seed = seed;
    f.dropProb = 0.03;
    f.dupProb = 0.05;
    f.jitterProb = 0.2;
    f.jitterMaxCycles = 150;
    f.watchdogTimeout = 3000;
    f.watchdogMaxRetries = 6;
    return f;
}

/** Total-loss fault mix: every eligible message dropped, tiny retry
 *  budget, so the HW and SW tiers provably cannot finish. */
FaultConfig
lethalFaults(uint64_t seed)
{
    FaultConfig f;
    f.seed = seed;
    f.dropProb = 1.0;
    f.watchdogTimeout = 200;
    f.watchdogMaxRetries = 2;
    return f;
}

struct ThrowOnFatalGuard
{
    ThrowOnFatalGuard() { setLogThrowOnFatal(true); }
    ~ThrowOnFatalGuard() { setLogThrowOnFatal(false); }
};

const MsgType kAllTypes[] = {
    MsgType::ReadReq,      MsgType::WriteReq,
    MsgType::Writeback,    MsgType::ReadReply,
    MsgType::WriteReply,   MsgType::Inval,
    MsgType::WritebackAck, MsgType::ReadFwd,
    MsgType::WriteFwd,     MsgType::ShareWb,
    MsgType::OwnXfer,      MsgType::InvalAck,
    MsgType::FirstUpdate,  MsgType::ROnlyUpdate,
    MsgType::FirstUpdateFail,
};

} // namespace

TEST(FaultPlan, SameSeedReplaysIdenticalSchedule)
{
    FaultConfig f = moderateFaults(1234);
    FaultPlan a(f), b(f);
    a.arm();
    b.arm();
    for (int i = 0; i < 2000; ++i) {
        MsgType t = kAllTypes[i % std::size(kAllTypes)];
        FaultDecision da = a.decide(t);
        FaultDecision db = b.decide(t);
        ASSERT_EQ(da.drop, db.drop) << "msg " << i;
        ASSERT_EQ(da.duplicate, db.duplicate) << "msg " << i;
        ASSERT_EQ(da.jitter, db.jitter) << "msg " << i;
    }
    EXPECT_EQ(a.faultsInjected.value(), b.faultsInjected.value());
    EXPECT_GT(a.faultsInjected.value(), 0);
}

TEST(FaultPlan, ReseedRestartsTheStream)
{
    FaultConfig f = moderateFaults(99);
    FaultPlan p(f);
    p.arm();
    std::vector<FaultDecision> first;
    for (int i = 0; i < 500; ++i)
        first.push_back(p.decide(MsgType::ReadReq));
    p.reseed(99); // same seed -> same schedule from the top
    for (int i = 0; i < 500; ++i) {
        FaultDecision d = p.decide(MsgType::ReadReq);
        ASSERT_EQ(d.drop, first[i].drop) << i;
        ASSERT_EQ(d.duplicate, first[i].duplicate) << i;
        ASSERT_EQ(d.jitter, first[i].jitter) << i;
    }
}

TEST(FaultPlan, DisarmedPlanInjectsNothing)
{
    FaultConfig f;
    f.seed = 7;
    f.dropProb = 1.0;
    f.dupProb = 1.0;
    f.jitterProb = 1.0;
    f.watchdogTimeout = 100;
    FaultPlan p(f);
    for (int i = 0; i < 100; ++i) {
        FaultDecision d = p.decide(MsgType::ReadReq);
        EXPECT_FALSE(d.drop);
        EXPECT_FALSE(d.duplicate);
        EXPECT_EQ(d.jitter, 0u);
    }
    EXPECT_EQ(p.faultsInjected.value(), 0);
}

TEST(FaultPlan, EligibilityMatchesProtocolRecoverability)
{
    // Only signals somebody retransmits may be dropped.
    for (MsgType t : {MsgType::FirstUpdate, MsgType::ROnlyUpdate,
                      MsgType::ReadFirstSig, MsgType::FirstWriteSig,
                      MsgType::CopyOutSig}) {
        EXPECT_TRUE(FaultPlan::netRetransmits(t));
        EXPECT_TRUE(FaultPlan::dropEligible(t, false));
        EXPECT_TRUE(FaultPlan::dropEligible(t, true));
    }

    // Requests are recoverable only when the watchdog is on.
    for (MsgType t : {MsgType::ReadReq, MsgType::WriteReq}) {
        EXPECT_FALSE(FaultPlan::netRetransmits(t));
        EXPECT_FALSE(FaultPlan::dropEligible(t, false));
        EXPECT_TRUE(FaultPlan::dropEligible(t, true));
    }

    // No recovery leg for replies, forwards, writebacks, acks, or
    // the deferred read-in legs: never dropped.
    for (MsgType t :
         {MsgType::ReadReply, MsgType::WriteReply, MsgType::Inval,
          MsgType::InvalAck, MsgType::Writeback, MsgType::WritebackAck,
          MsgType::ReadFwd, MsgType::WriteFwd, MsgType::ShareWb,
          MsgType::OwnXfer, MsgType::FirstUpdateFail,
          MsgType::ReadInReq, MsgType::ReadInReply}) {
        EXPECT_FALSE(FaultPlan::dropEligible(t, true))
            << static_cast<int>(t);
    }

    // Duplication additionally covers the idempotent replies and
    // invalidation legs, but never the forwards / writebacks.
    for (MsgType t : {MsgType::ReadReply, MsgType::WriteReply,
                      MsgType::Inval, MsgType::InvalAck}) {
        EXPECT_TRUE(FaultPlan::dupEligible(t, true))
            << static_cast<int>(t);
    }
    for (MsgType t :
         {MsgType::ReadFwd, MsgType::WriteFwd, MsgType::ShareWb,
          MsgType::OwnXfer, MsgType::Writeback,
          MsgType::WritebackAck}) {
        EXPECT_FALSE(FaultPlan::dupEligible(t, true))
            << static_cast<int>(t);
    }
}

TEST(FaultConfig, DropWithoutWatchdogIsRejected)
{
    ThrowOnFatalGuard g;
    MachineConfig cfg;
    cfg.fault.dropProb = 0.1; // watchdogTimeout stays 0
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(FaultConfig, ProbabilitiesMustBeInRange)
{
    ThrowOnFatalGuard g;
    {
        MachineConfig cfg;
        cfg.fault.dupProb = 1.5;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg;
        cfg.fault.jitterProb = -0.1;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg;
        cfg.fault.watchdogMaxRetries = -1;
        EXPECT_THROW(cfg.validate(), FatalError);
    }
    {
        MachineConfig cfg;
        cfg.fault = moderateFaults(1);
        cfg.validate(); // sane mix passes
    }
}

TEST(Fault, WatchdogRecoversDroppedMessages)
{
    // Disjoint subscripts: every element belongs to one iteration,
    // so no message timing can create a (spurious) test failure and
    // the verdict is stable under injection.
    Fig1CLoop loop(128, 512, true, 3);
    MachineConfig cfg;
    cfg.numProcs = 4;

    ExecConfig sxc;
    sxc.mode = ExecMode::Serial;
    LoopExecutor se(cfg, loop, sxc);
    se.run();

    cfg.fault = moderateFaults(5);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor he(cfg, loop, xc);
    RunResult r = he.run();

    EXPECT_FALSE(r.infraFailed) << r.infraReason;
    EXPECT_TRUE(r.passed);

    // The schedule really did hurt us, and we really did recover.
    FaultPlan &plan = he.machine().faultPlan();
    EXPECT_GT(plan.faultsInjected.value(), 0);
    EXPECT_GT(plan.drops.value(), 0);
    double recoveries = he.machine().network().msgsRetried.value();
    for (int n = 0; n < cfg.numProcs; ++n)
        recoveries += he.machine().cacheCtrl(n).msgsRetried.value();
    EXPECT_GE(recoveries, plan.drops.value());

    const Region *sa = se.sharedRegion(0);
    const Region *ha = he.sharedRegion(0);
    for (uint64_t e = 0; e < sa->numElems(); ++e) {
        ASSERT_EQ(he.machine().memory().read(ha->elemAddr(e), 4),
                  se.machine().memory().read(sa->elemAddr(e), 4))
            << "elem " << e;
    }
}

TEST(Fault, InjectionRunIsDeterministic)
{
    RandomLoopParams rp{32, 48, 3, 0.6, 48, TestType::Priv, 21};
    RandomLoop loop(rp);
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.fault = moderateFaults(17);

    ExecConfig xc;
    xc.mode = ExecMode::HW;

    LoopExecutor a(cfg, loop, xc);
    RunResult ra = a.run();
    LoopExecutor b(cfg, loop, xc);
    RunResult rb = b.run();

    EXPECT_EQ(ra.passed, rb.passed);
    EXPECT_EQ(ra.totalTicks, rb.totalTicks);
    EXPECT_EQ(a.machine().faultPlan().faultsInjected.value(),
              b.machine().faultPlan().faultsInjected.value());
    EXPECT_EQ(a.machine().faultPlan().drops.value(),
              b.machine().faultPlan().drops.value());

    const Region *aa = a.sharedRegion(0);
    const Region *ba = b.sharedRegion(0);
    for (uint64_t e = 0; e < aa->numElems(); ++e) {
        ASSERT_EQ(a.machine().memory().read(aa->elemAddr(e), 4),
                  b.machine().memory().read(ba->elemAddr(e), 4));
    }
}

TEST(Fault, ExhaustedRetryBudgetInfraFailsInsteadOfPanicking)
{
    RandomLoopParams rp{24, 32, 3, 0.5, 32, TestType::NonPriv, 9};
    RandomLoop loop(rp);
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.fault = lethalFaults(3);

    ExecConfig xc;
    xc.mode = ExecMode::HW;
    LoopExecutor exec(cfg, loop, xc);
    RunResult r = exec.run(); // must return, not abort
    EXPECT_TRUE(r.infraFailed);
    EXPECT_FALSE(r.passed);
    EXPECT_FALSE(r.infraReason.empty());

    double lost = exec.machine().network().msgsLost.value();
    for (int n = 0; n < cfg.numProcs; ++n)
        lost += exec.machine().cacheCtrl(n).txnsLost.value();
    EXPECT_GE(lost, 1);
}

TEST(Fault, LadderDegradesHwToSwToSerial)
{
    RandomLoopParams rp{24, 32, 3, 0.5, 32, TestType::NonPriv, 9};
    RandomLoop loop(rp);
    MachineConfig cfg;
    cfg.numProcs = 4;

    // Fault-free serial reference for the final data check.
    ExecConfig sxc;
    sxc.mode = ExecMode::Serial;
    LoopExecutor se(cfg, loop, sxc);
    se.run();

    cfg.fault = lethalFaults(3);
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    DegradationPolicy pol;
    pol.maxHwAttempts = 2;
    pol.maxSwAttempts = 1;
    DegradationLog log;
    LadderOutcome out = runWithDegradation(cfg, loop, xc, pol, &log);

    // Both speculative tiers burn their budget; the fault-free
    // serial floor finishes the job.
    EXPECT_EQ(out.degradations, 2);
    ASSERT_EQ(out.steps.size(), 4u); // 2x HW, 1x SW, 1x Serial
    EXPECT_EQ(out.steps[0].mode, ExecMode::HW);
    EXPECT_EQ(out.steps[1].mode, ExecMode::HW);
    EXPECT_EQ(out.steps[2].mode, ExecMode::SW);
    EXPECT_EQ(out.steps[3].mode, ExecMode::Serial);
    for (size_t i = 0; i + 1 < out.steps.size(); ++i)
        EXPECT_TRUE(out.steps[i].infraFailed) << "step " << i;
    EXPECT_FALSE(out.steps.back().infraFailed);

    EXPECT_EQ(out.result.mode, ExecMode::Serial);
    EXPECT_FALSE(out.result.infraFailed);
    EXPECT_TRUE(out.result.passed);

    ASSERT_EQ(log.records().size(), 2u);
    EXPECT_EQ(log.records()[0].from, ExecMode::HW);
    EXPECT_EQ(log.records()[0].to, ExecMode::SW);
    EXPECT_EQ(log.records()[1].from, ExecMode::SW);
    EXPECT_EQ(log.records()[1].to, ExecMode::Serial);
    EXPECT_EQ(log.degradations.value(), 2);
    EXPECT_FALSE(log.report().empty());

    ASSERT_TRUE(out.exec);
    const Region *sa = se.sharedRegion(0);
    const Region *ha = out.exec->sharedRegion(0);
    for (uint64_t e = 0; e < sa->numElems(); ++e) {
        ASSERT_EQ(out.exec->machine().memory().read(
                      ha->elemAddr(e), 4),
                  se.machine().memory().read(sa->elemAddr(e), 4))
            << "elem " << e;
    }
}

TEST(Fault, LadderStaysOnFirstTierWhenRecoverable)
{
    // Dup + jitter only: nothing can be lost, so the HW tier must
    // succeed on its first attempt without degrading.
    RandomLoopParams rp{32, 48, 3, 0.5, 48, TestType::NonPriv, 13};
    RandomLoop loop(rp);
    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.fault.seed = 8;
    cfg.fault.dupProb = 0.1;
    cfg.fault.jitterProb = 0.3;
    cfg.fault.jitterMaxCycles = 120;

    ExecConfig xc;
    xc.mode = ExecMode::HW;
    DegradationLog log;
    LadderOutcome out = runWithDegradation(cfg, loop, xc, {}, &log);

    EXPECT_EQ(out.degradations, 0);
    ASSERT_EQ(out.steps.size(), 1u);
    EXPECT_EQ(out.steps[0].mode, ExecMode::HW);
    EXPECT_FALSE(out.result.infraFailed);
    EXPECT_TRUE(log.records().empty());
    EXPECT_EQ(out.result.mode, ExecMode::HW);
}

#include "mem/dsm.hh"
#include "sim/sim_context.hh"
#include "spec/invariants.hh"
#include "verify/explorer.hh"

namespace
{

/**
 * 2-node conflicting-store run with the requester watchdog enabled,
 * for fault-schedule exploration: the verdict asserts completion,
 * quiescence, serializability, and a clean final invariant sweep.
 */
verify::RunVerdict
watchdogMicroRun()
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.fault.watchdogTimeout = 2000;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 4, 4, Placement::Fixed, 0);
    Addr a = dsm.memory().region(id).elemAddr(0);
    dsm.memory().write(a, 4, 7);
    InvariantChecker chk(dsm);
    size_t viols = 0;
    chk.setHandler([&](const ProtocolViolation &) { ++viols; });
    bool loaded = false;
    dsm.cacheCtrl(0).store(a, 4, 11, 1);
    dsm.cacheCtrl(1).store(a, 4, 22, 2);
    dsm.cacheCtrl(1).load(a, 4, 2, [&](uint64_t) { loaded = true; });
    dsm.eventQueue().run();
    bool quiesced = dsm.quiescent();
    chk.checkAll(InvariantChecker::Granularity::Quiesce);
    dsm.resetMachine(true);
    uint64_t fin = dsm.memory().read(a, 4);

    verify::RunVerdict v;
    std::string err;
    if (!loaded)
        err += "load never completed; ";
    if (!quiesced)
        err += "not quiescent; ";
    if (fin != 11 && fin != 22)
        err += "final value not a serialization; ";
    if (viols)
        err += "invariant violation(s); ";
    v.report = err;
    v.ok = err.empty();
    return v;
}

/**
 * Probe the default schedule with fault decisions live and return
 * the stack index of the first Fault decision satisfying @p want,
 * or SIZE_MAX.
 */
size_t
firstFaultIndex(const std::function<bool(const FaultChoicePoint &)> &want)
{
    verify::ReplayController rc;
    rc.exploreFaults = true;
    {
        verify::ScopedScheduleController scope(&rc);
        watchdogMicroRun();
    }
    for (size_t i = 0; i < rc.decisions().size(); ++i) {
        const verify::Decision &d = rc.decisions()[i];
        if (d.kind == verify::ChoiceKind::Fault && want(d.fault))
            return i;
    }
    return SIZE_MAX;
}

} // namespace

TEST(Fault, ExploredDropThenRetryRecoversTheRequest)
{
    // Deterministically drop the first droppable transmission (a
    // request: only the watchdog can recover it) by replaying a
    // fault-choice schedule, and assert the retry leg completes the
    // protocol with the verdict intact.
    size_t at = firstFaultIndex(
        [](const FaultChoicePoint &p) { return p.canDrop; });
    ASSERT_NE(at, SIZE_MAX) << "no droppable transmission offered";

    std::vector<size_t> prefix(at, 0);
    prefix.push_back(1); // alternative 1 = drop (canDrop holds)
    verify::ReplayController rc(prefix);
    rc.exploreFaults = true;
    bool dropped = false;
    rc.onFaultDecision = [&](const FaultChoicePoint &p, size_t,
                             size_t take) {
        if (take == 1 && p.canDrop)
            dropped = true;
    };
    verify::RunVerdict v;
    {
        verify::ScopedScheduleController scope(&rc);
        v = watchdogMicroRun();
    }
    EXPECT_TRUE(dropped) << "the fault choice was never exercised";
    EXPECT_TRUE(v.ok) << v.report;
}

TEST(Fault, ExploredDuplicateDeliveryIsAbsorbed)
{
    // Deterministically duplicate one delivery and assert receiver
    // idempotence under the replayed schedule.
    size_t at = firstFaultIndex(
        [](const FaultChoicePoint &p) { return p.canDup; });
    ASSERT_NE(at, SIZE_MAX) << "no dup-eligible transmission offered";

    verify::ReplayController probe;
    probe.exploreFaults = true;
    {
        verify::ScopedScheduleController scope(&probe);
        watchdogMicroRun();
    }
    const verify::Decision &d = probe.decisions()[at];
    // Alternative meaning: 1 = drop if canDrop else dup, 2 = dup.
    size_t dup_alt = d.fault.canDrop ? 2 : 1;
    ASSERT_GT(d.degree, dup_alt);

    std::vector<size_t> prefix(at, 0);
    prefix.push_back(dup_alt);
    verify::ReplayController rc(prefix);
    rc.exploreFaults = true;
    bool duplicated = false;
    rc.onFaultDecision = [&](const FaultChoicePoint &p, size_t,
                             size_t take) {
        if ((take == 2) || (take == 1 && !p.canDrop))
            duplicated = true;
    };
    verify::RunVerdict v;
    {
        verify::ScopedScheduleController scope(&rc);
        v = watchdogMicroRun();
    }
    EXPECT_TRUE(duplicated) << "the dup choice was never exercised";
    EXPECT_TRUE(v.ok) << v.report;
}
