/**
 * @file
 * Tests of the bounded interleaving explorer (verify/explorer.hh):
 * controller replay semantics, complete enumeration of same-tick
 * permutations, budgets and independence pruning, exhaustive
 * exploration of a real two-node protocol scenario with per-delivery
 * invariant checking, verdict stability of the HW speculation
 * machine under reordering, detection + shrinking of a seeded
 * schedule-dependent protocol bug, schedule-file round trips, and
 * parallel exploration equivalence.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "mem/directory.hh"
#include "mem/dsm.hh"
#include "sim/sim_context.hh"
#include "spec/invariants.hh"
#include "verify/explorer.hh"
#include "workloads/microloops.hh"

using namespace specrt;
using verify::explore;
using verify::exploreParallel;
using verify::ExploreOptions;
using verify::ExploreResult;
using verify::RunVerdict;
using verify::ScheduleFile;

namespace
{

/**
 * A RunFn scheduling three same-tick events on a bare queue and
 * recording their firing order as a string. Orders are collected
 * into @p orders under @p mu (exploreParallel calls concurrently).
 */
verify::RunFn
permutationRun(std::set<std::string> *orders, std::mutex *mu)
{
    return [orders, mu]() {
        EventQueue eq;
        eq.setScheduleController(
            SimContext::current().scheduleController);
        auto order = std::make_shared<std::string>();
        eq.schedule(5, [order] { *order += 'a'; }, EventKind::Cache, 0);
        eq.schedule(5, [order] { *order += 'b'; },
                    EventKind::Directory, 1);
        eq.schedule(5, [order] { *order += 'c'; }, EventKind::Network,
                    2);
        eq.run();
        {
            std::lock_guard<std::mutex> g(*mu);
            orders->insert(*order);
        }
        RunVerdict v;
        if (order->size() != 3) {
            v.ok = false;
            v.report = "lost events: '" + *order + "'";
        }
        return v;
    };
}

/** What one two-node protocol micro-run observed. */
struct MicroOutcome
{
    bool loaded = false;
    uint64_t loadVal = 0;
    uint64_t finalVal = 0;
    bool quiescentAfterDrain = false;
    size_t violations = 0;
    std::string firstViolation;
    double dups = 0;
};

/**
 * One fresh two-node machine, one shared element homed at node 0
 * (initial value 7): node 0 stores 11, node 1 stores 22 and loads.
 * Every network delivery is followed by a Delivery-granularity
 * invariant sweep when @p delivery_checks; a final Quiesce-
 * granularity sweep always runs. @p post_run (optional) mutates the
 * machine between the drain and the final sweep (seeded-bug tests).
 */
MicroOutcome
runMicro(const FaultConfig &fault, bool delivery_checks,
         const std::function<void(DsmSystem &, Addr)> &post_run = {})
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.fault = fault;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 4, 4, Placement::Fixed, 0);
    Addr a = dsm.memory().region(id).elemAddr(0);
    dsm.memory().write(a, 4, 7);

    InvariantChecker chk(dsm);
    MicroOutcome out;
    chk.setHandler([&](const ProtocolViolation &v) {
        ++out.violations;
        if (out.firstViolation.empty())
            out.firstViolation = v.str();
    });
    if (delivery_checks) {
        dsm.eventQueue().setPostFireHook([&](Tick, EventKind k) {
            if (k == EventKind::Network)
                chk.checkAll(InvariantChecker::Granularity::Delivery);
        });
    }

    bool inject = fault.dropProb > 0 || fault.dupProb > 0 ||
                  fault.jitterProb > 0;
    if (inject)
        dsm.faultPlan().arm();

    dsm.cacheCtrl(0).store(a, 4, 11, 1);
    dsm.cacheCtrl(1).store(a, 4, 22, 2);
    dsm.cacheCtrl(1).load(a, 4, 2, [&](uint64_t v) {
        out.loadVal = v;
        out.loaded = true;
    });
    dsm.eventQueue().run();
    if (inject)
        dsm.faultPlan().disarm();

    out.quiescentAfterDrain = dsm.quiescent();
    out.dups = dsm.faultPlan().dups.value();
    if (post_run)
        post_run(dsm, a);
    chk.checkAll(InvariantChecker::Granularity::Quiesce);

    dsm.resetMachine(true);
    out.finalVal = dsm.memory().read(a, 4);
    return out;
}

/** The micro-run's correctness property, as a RunVerdict. */
RunVerdict
microVerdict(const MicroOutcome &o)
{
    std::ostringstream os;
    if (!o.loaded)
        os << "load never completed; ";
    if (!o.quiescentAfterDrain)
        os << "not quiescent after drain; ";
    if (o.loaded && o.loadVal != 7 && o.loadVal != 11 &&
        o.loadVal != 22)
        os << "load saw " << o.loadVal << "; ";
    if (o.finalVal != 11 && o.finalVal != 22)
        os << "final value " << o.finalVal
           << " not a serialization of the stores; ";
    if (o.violations)
        os << o.violations << " invariant violation(s), first: "
           << o.firstViolation;
    RunVerdict v;
    v.report = os.str();
    v.ok = v.report.empty();
    return v;
}

verify::RunFn
microRun(const FaultConfig &fault = {}, bool delivery_checks = true)
{
    return [fault, delivery_checks]() {
        return microVerdict(runMicro(fault, delivery_checks));
    };
}

/** One HW-mode executor run of a Fig. 3 archetype, as a RunFn. */
RunVerdict
runFig3(Fig3Kind kind, bool expect_pass)
{
    Fig3Loop loop(kind, 4);
    MachineConfig cfg;
    cfg.numProcs = 2;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.sched = SchedPolicy::StaticChunk;
    xc.checkInvariants = true;
    xc.invariantGranularity = InvariantChecker::Granularity::Delivery;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();

    std::ostringstream os;
    if (res.passed != expect_pass)
        os << "verdict " << res.passed << ", expected " << expect_pass
           << " (" << res.hwFailure.reason << "); ";
    if (res.invariantViolations)
        os << res.invariantViolations << " invariant violation(s); ";
    if (res.infraFailed)
        os << "infra failure: " << res.infraReason;
    RunVerdict v;
    v.report = os.str();
    v.ok = v.report.empty();
    return v;
}

} // namespace

TEST(ReplayController, EmptyPrefixReproducesDefaultSchedule)
{
    std::set<std::string> orders;
    std::mutex mu;
    verify::RunFn run = permutationRun(&orders, &mu);

    // Uncontrolled (no controller installed at all).
    ASSERT_TRUE(run().ok);
    ASSERT_EQ(orders.size(), 1u);
    std::string plain = *orders.begin();

    // Controlled with an empty prefix: answer 0 everywhere.
    RunVerdict v = verify::replay(run, {});
    EXPECT_TRUE(v.ok);
    EXPECT_EQ(orders.size(), 1u)
        << "pick-0 must reproduce the uncontrolled order " << plain;
}

TEST(ReplayController, RecordsDecisionPointsInDefaultOrder)
{
    std::set<std::string> orders;
    std::mutex mu;
    verify::RunFn run = permutationRun(&orders, &mu);

    verify::ReplayController rc({1});
    {
        verify::ScopedScheduleController scope(&rc);
        ASSERT_TRUE(run().ok);
    }
    // Three same-tick events: one 3-way decision, then a 2-way one.
    ASSERT_EQ(rc.numDecisions(), 2u);
    EXPECT_EQ(rc.decisions()[0].degree, 3u);
    EXPECT_EQ(rc.decisions()[0].taken, 1u);
    EXPECT_EQ(rc.decisions()[1].degree, 2u);
    EXPECT_EQ(rc.decisions()[1].taken, 0u); // beyond prefix: default
    // Candidates come in default order with their scheduling tags.
    EXPECT_EQ(rc.decisions()[0].options[0].kind, EventKind::Cache);
    EXPECT_EQ(rc.decisions()[0].options[1].kind, EventKind::Directory);
    EXPECT_EQ(rc.decisions()[0].options[2].kind, EventKind::Network);
    EXPECT_EQ(rc.decisions()[0].options[2].actor, 2u);
    EXPECT_EQ(orders.count("bac"), 1u);
}

TEST(Explorer, EnumeratesAllPermutationsOfThreeSameTickEvents)
{
    std::set<std::string> orders;
    std::mutex mu;
    ExploreResult res = explore(permutationRun(&orders, &mu));
    EXPECT_FALSE(res.violated) << res.summary();
    EXPECT_FALSE(res.budgetExhausted);
    EXPECT_EQ(res.runs, 6u);
    EXPECT_EQ(res.maxDepthSeen, 2u);
    std::set<std::string> expect = {"abc", "acb", "bac",
                                    "bca", "cab", "cba"};
    EXPECT_EQ(orders, expect);
}

TEST(Explorer, MaxDepthBranchesOnlyAboveTheBound)
{
    std::set<std::string> orders;
    std::mutex mu;
    ExploreOptions o;
    o.maxDepth = 1;
    ExploreResult res = explore(permutationRun(&orders, &mu), o);
    EXPECT_FALSE(res.violated) << res.summary();
    // Only the first decision branches: a/b/c leads, defaults below.
    EXPECT_EQ(res.runs, 3u);
    std::set<std::string> expect = {"abc", "bac", "cab"};
    EXPECT_EQ(orders, expect);
}

TEST(Explorer, MaxBranchOneDegeneratesToTheDefaultSchedule)
{
    std::set<std::string> orders;
    std::mutex mu;
    ExploreOptions o;
    o.maxBranch = 1;
    ExploreResult res = explore(permutationRun(&orders, &mu), o);
    EXPECT_EQ(res.runs, 1u);
    EXPECT_EQ(orders, std::set<std::string>{"abc"});
}

TEST(Explorer, MaxRunsBudgetStopsEarly)
{
    std::set<std::string> orders;
    std::mutex mu;
    ExploreOptions o;
    o.maxRuns = 4;
    ExploreResult res = explore(permutationRun(&orders, &mu), o);
    EXPECT_TRUE(res.budgetExhausted);
    EXPECT_EQ(res.runs, 4u);
    EXPECT_FALSE(res.violated);
}

TEST(Explorer, LockedPrefixConfinesTheWalkToOneSubtree)
{
    std::set<std::string> orders;
    std::mutex mu;
    ExploreOptions o;
    o.lockedPrefix = {1};
    ExploreResult res = explore(permutationRun(&orders, &mu), o);
    EXPECT_FALSE(res.violated) << res.summary();
    EXPECT_EQ(res.runs, 2u);
    std::set<std::string> expect = {"bac", "bca"};
    EXPECT_EQ(orders, expect);
}

TEST(Explorer, IndependencePruningSkipsCommutingNetworkSiblings)
{
    auto run = [] {
        return [] {
            EventQueue eq;
            eq.setScheduleController(
                SimContext::current().scheduleController);
            eq.schedule(5, [] {}, EventKind::Network, 0);
            eq.schedule(5, [] {}, EventKind::Network, 1);
            eq.run();
            return RunVerdict{};
        };
    }();

    ExploreResult plain = explore(run);
    EXPECT_EQ(plain.runs, 2u);

    ExploreOptions o;
    o.independent = verify::networkActorIndependence;
    ExploreResult pruned = explore(run, o);
    EXPECT_EQ(pruned.runs, 1u);
    EXPECT_EQ(pruned.pruned, 1u);
    EXPECT_FALSE(pruned.violated);

    // The heuristic itself.
    EventChoice na0{5, EventKind::Network, 0, false};
    EventChoice na1{5, EventKind::Network, 1, false};
    EventChoice nsame{5, EventKind::Network, 0, false};
    EventChoice cache{5, EventKind::Cache, 1, false};
    EventChoice unk{5, EventKind::Network, unknownActor, false};
    EXPECT_TRUE(verify::networkActorIndependence(na0, na1));
    EXPECT_FALSE(verify::networkActorIndependence(na0, nsame));
    EXPECT_FALSE(verify::networkActorIndependence(na0, cache));
    EXPECT_FALSE(verify::networkActorIndependence(na0, unk));
}

TEST(Explorer, ExhaustiveTwoNodeProtocolScenarioHoldsInvariants)
{
    // Every interleaving of the two-node conflicting-store scenario,
    // with the full invariant sweep after every network delivery and
    // the serializability property at the end. Exhaustive: no depth
    // or branch bound (maxRuns is a runaway backstop only).
    ExploreOptions o;
    o.maxRuns = 50000;
    ExploreResult res = explore(microRun(), o);
    EXPECT_FALSE(res.violated) << res.summary();
    EXPECT_FALSE(res.budgetExhausted)
        << "scenario no longer fits the backstop: " << res.summary();
    EXPECT_GT(res.runs, 1u) << res.summary();
    EXPECT_GT(res.maxDepthSeen, 0u);
}

TEST(Explorer, NetworkIndependencePruningPreservesTheVerdict)
{
    // Two disjoint transactions (distinct lines, distinct homes,
    // distinct requesters): their symmetric deliveries coincide
    // tick-for-tick, so every decision point offers two Network
    // events bound for different nodes -- exactly what the
    // distinct-destination heuristic prunes.
    auto run = []() -> RunVerdict {
        MachineConfig cfg;
        cfg.numProcs = 4;
        DsmSystem dsm(cfg);
        int ia = dsm.memory().alloc("A", 4, 4, Placement::Fixed, 0);
        int ib = dsm.memory().alloc("B", 4, 4, Placement::Fixed, 2);
        Addr a = dsm.memory().region(ia).elemAddr(0);
        Addr b = dsm.memory().region(ib).elemAddr(0);
        InvariantChecker chk(dsm);
        size_t viols = 0;
        chk.setHandler([&](const ProtocolViolation &) { ++viols; });
        bool la = false, lb = false;
        dsm.cacheCtrl(1).load(a, 4, 1, [&](uint64_t) { la = true; });
        dsm.cacheCtrl(3).load(b, 4, 1, [&](uint64_t) { lb = true; });
        dsm.eventQueue().run();
        chk.checkAll(InvariantChecker::Granularity::Quiesce);
        RunVerdict v;
        if (!la || !lb) {
            v.ok = false;
            v.report = "a load never completed";
        } else if (viols) {
            v.ok = false;
            v.report = "invariant violations";
        }
        return v;
    };

    ExploreResult full = explore(run);
    ExploreOptions o;
    o.independent = verify::networkActorIndependence;
    ExploreResult pruned = explore(run, o);

    EXPECT_FALSE(full.violated) << full.summary();
    EXPECT_FALSE(pruned.violated) << pruned.summary();
    EXPECT_GT(full.runs, 1u);
    EXPECT_GT(pruned.pruned, 0u);
    EXPECT_LT(pruned.runs, full.runs);
}

TEST(Explorer, DuplicateDeliveriesAreIdempotentUnderReordering)
{
    // Fault plan set to duplicate every dup-eligible message; the
    // protocol must absorb re-deliveries in every explored
    // interleaving. Delivery-granularity sweeps stay on.
    FaultConfig f;
    f.seed = 7;
    f.dupProb = 1.0;
    ExploreOptions o;
    o.maxDepth = 4;
    o.maxRuns = 200;
    ExploreResult res = explore(microRun(f), o);
    EXPECT_FALSE(res.violated) << res.summary();
    EXPECT_GT(res.runs, 1u);

    // And the duplicates really happened.
    MicroOutcome probe = runMicro(f, false);
    EXPECT_GT(probe.dups, 0.0);
}

TEST(Explorer, HwVerdictIsScheduleIndependentOnFig3Archetypes)
{
    // The paper's section 3.3 verdict must not depend on message
    // interleaving: read-in-needed and write-first pass, flow-dep
    // fails, under every explored schedule of the real HW machine
    // with per-delivery invariant sweeps.
    struct Case
    {
        Fig3Kind kind;
        bool pass;
        const char *name;
    };
    const Case cases[] = {
        {Fig3Kind::ReadInNeeded, true, "read-in-needed"},
        {Fig3Kind::WriteFirst, true, "write-first"},
        {Fig3Kind::FlowDep, false, "flow-dep"},
    };
    for (const Case &c : cases) {
        verify::RunFn run = [&c] { return runFig3(c.kind, c.pass); };
        ExploreOptions o;
        o.maxDepth = 3;
        o.maxRuns = 24;
        ExploreResult res = explore(run, o);
        EXPECT_FALSE(res.violated) << c.name << ": " << res.summary();
        EXPECT_GT(res.runs, 1u) << c.name;
    }
}

namespace
{

/**
 * The seeded-bug run: a test-only mutation standing in for a
 * protocol bug that only some interleavings reach. When the schedule
 * deviates from the default order anywhere, the home directory entry
 * of the contended line is corrupted to Uncached after the drain --
 * the final invariant sweep must catch it, and the explorer must
 * shrink the failure to a minimal replayable stack.
 */
RunVerdict
seededBugRun()
{
    auto *rc = dynamic_cast<verify::ReplayController *>(
        SimContext::current().scheduleController);
    auto reordered = std::make_shared<bool>(false);
    if (rc) {
        rc->onDecision = [reordered](const EventChoice *, size_t,
                                     size_t take) {
            if (take != 0)
                *reordered = true;
        };
    }
    MicroOutcome o =
        runMicro({}, false, [&](DsmSystem &dsm, Addr a) {
            if (!*reordered)
                return;
            Addr line = dsm.cacheCtrl(0).cacheArray().lineAlign(a);
            DirEntry &e = dsm.dirCtrl(0).directory().entry(line);
            e.state = DirState::Uncached;
            e.sharers = 0;
            e.owner = invalidNode;
        });
    return microVerdict(o);
}

} // namespace

TEST(Explorer, FindsAndShrinksSeededProtocolBug)
{
    ExploreOptions o;
    o.maxRuns = 50000;
    ExploreResult res = explore(seededBugRun, o);
    ASSERT_TRUE(res.violated) << res.summary();
    EXPECT_NE(res.report.find("invariant violation"),
              std::string::npos)
        << res.report;

    // Shrunk to a minimal stack, well under the acceptance bound.
    ASSERT_FALSE(res.witness.empty());
    EXPECT_LE(res.witness.size(), 20u) << res.summary();
    EXPECT_LE(res.witness.size(), res.rawWitness.size());

    // The witness replays to the same failure; the default schedule
    // stays clean.
    EXPECT_FALSE(verify::replay(seededBugRun, res.witness).ok);
    EXPECT_TRUE(verify::replay(seededBugRun, {}).ok);
}

TEST(Explorer, ParallelExplorationMatchesSerial)
{
    std::set<std::string> serial_orders, par_orders;
    std::mutex mu;
    ExploreResult serial =
        explore(permutationRun(&serial_orders, &mu));

    campaign::Options copts;
    copts.jobs = 2;
    ExploreResult par = exploreParallel(
        permutationRun(&par_orders, &mu), {}, 1, copts);
    EXPECT_FALSE(par.violated) << par.summary();
    EXPECT_EQ(par_orders, serial_orders);
    // The probe run re-executes the root, so coverage counts exceed
    // the serial walk's by the probes.
    EXPECT_GE(par.runs, serial.runs);
}

TEST(Explorer, ParallelExplorationFindsTheSeededBug)
{
    campaign::Options copts;
    copts.jobs = 2;
    ExploreOptions o;
    o.maxRuns = 50000;
    ExploreResult res = exploreParallel(seededBugRun, o, 1, copts);
    ASSERT_TRUE(res.violated) << res.summary();
    EXPECT_FALSE(res.witness.empty());
    EXPECT_FALSE(verify::replay(seededBugRun, res.witness).ok);
}

TEST(ScheduleFileTest, RoundTripsMetaAndChoices)
{
    ScheduleFile f;
    f.meta["workload"] = "micro 2-node";
    f.meta["report"] = "dirty-single-owner: line 0x40";
    f.choices = {0, 3, 1, 0, 2};

    ScheduleFile g = ScheduleFile::parse(f.serialize());
    EXPECT_EQ(g.meta, f.meta);
    EXPECT_EQ(g.choices, f.choices);

    std::string path = testing::TempDir() + "/explorer_sched_rt.txt";
    f.save(path);
    ScheduleFile h = ScheduleFile::load(path);
    EXPECT_EQ(h.meta, f.meta);
    EXPECT_EQ(h.choices, f.choices);
}

TEST(ScheduleFileTest, RejectsMalformedInput)
{
    SimContext &ctx = SimContext::current();
    bool prev = ctx.logThrowOnFatal;
    ctx.logThrowOnFatal = true;
    EXPECT_THROW(ScheduleFile::parse("bogus"), FatalError);
    EXPECT_THROW(
        ScheduleFile::parse("specrt-schedule v1\nwibble 3\n"),
        FatalError);
    EXPECT_THROW(
        ScheduleFile::parse("specrt-schedule v1\nchoice -2\n"),
        FatalError);
    ctx.logThrowOnFatal = prev;
}

TEST(ScheduleFileTest, SaveOnAFullDiskPanics)
{
    if (access("/dev/full", W_OK) != 0)
        GTEST_SKIP() << "no writable /dev/full";
    ScheduleFile f;
    f.choices = {0, 1};
    SimContext &ctx = SimContext::current();
    bool prev = ctx.logThrowOnFatal;
    ctx.logThrowOnFatal = true;
    EXPECT_THROW(f.save("/dev/full"), FatalError);
    ctx.logThrowOnFatal = prev;
}

TEST(ScheduleFileTest, RoundTripsFaultKindsInV2)
{
    ScheduleFile f;
    f.meta["scenario"] = "faulty";
    f.choices = {0, 1, 2, 3};
    f.kinds = {verify::ChoiceKind::Sched, verify::ChoiceKind::Fault,
               verify::ChoiceKind::Fault, verify::ChoiceKind::Sched};
    ASSERT_TRUE(f.hasFaults());

    std::string text = f.serialize();
    EXPECT_NE(text.find("specrt-schedule v2"), std::string::npos);
    EXPECT_NE(text.find("fault 1"), std::string::npos);
    EXPECT_NE(text.find("end 4"), std::string::npos);

    ScheduleFile g = ScheduleFile::parse(text);
    EXPECT_EQ(g.choices, f.choices);
    EXPECT_EQ(g.kinds, f.kinds);
    EXPECT_EQ(g.meta, f.meta);
}

TEST(ScheduleFileTest, V1FilesStillParseAsAllSched)
{
    ScheduleFile f = ScheduleFile::parse(
        "specrt-schedule v1\nmeta scenario legacy\nchoice 2\n"
        "choice 0\n");
    EXPECT_EQ(f.choices, (std::vector<size_t>{2, 0}));
    EXPECT_TRUE(f.kinds.empty());
    EXPECT_FALSE(f.hasFaults());
}

TEST(ScheduleFileTest, StructuredErrorsNameLineAndCause)
{
    using verify::ParseError;
    ScheduleFile out;
    ParseError err;

    // Empty input.
    EXPECT_FALSE(ScheduleFile::tryParse("", out, err));
    EXPECT_EQ(err.line, 0u);

    // Version skew.
    EXPECT_FALSE(
        ScheduleFile::tryParse("specrt-schedule v9\n", out, err));
    EXPECT_EQ(err.line, 1u);
    EXPECT_NE(err.message.find("v9"), std::string::npos);

    // Unknown choice kind / keyword.
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nwibble 3\nend 1\n", out, err));
    EXPECT_EQ(err.line, 2u);

    // fault lines are a v2 feature.
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v1\nfault 1\n", out, err));
    EXPECT_EQ(err.line, 2u);

    // Malformed numbers: sign, garbage, overflow.
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nchoice -1\nend 1\n", out, err));
    EXPECT_EQ(err.line, 2u);
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nchoice 1x\nend 1\n", out, err));
    EXPECT_EQ(err.line, 2u);
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nchoice 99999999999999999999999\nend 1\n",
        out, err));
    EXPECT_EQ(err.line, 2u);

    // Fault alternative out of range.
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nfault 3\nend 1\n", out, err));
    EXPECT_EQ(err.line, 2u);

    // Truncation: a v2 file without its end trailer, and a trailer
    // whose count disagrees with the positions actually present.
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nchoice 1\n", out, err));
    EXPECT_NE(err.message.find("trailer"), std::string::npos);
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nchoice 1\nend 2\n", out, err));
    EXPECT_EQ(err.line, 3u);

    // Content after the trailer.
    EXPECT_FALSE(ScheduleFile::tryParse(
        "specrt-schedule v2\nchoice 1\nend 1\nchoice 0\n", out, err));
    EXPECT_EQ(err.line, 4u);
}

TEST(ScheduleFileTest, TryLoadReportsCorruptionWithoutPanicking)
{
    std::string path = testing::TempDir() + "/truncated.schedule";
    ScheduleFile f;
    f.choices = {0, 1, 2};
    f.save(path);

    // Simulate a torn write: drop the trailer and the last position.
    ScheduleFile whole = ScheduleFile::load(path);
    std::string text = whole.serialize();
    std::string cut = text.substr(0, text.find("choice 2"));
    {
        std::ofstream os(path, std::ios::trunc);
        os << cut;
    }
    ScheduleFile out;
    verify::ParseError err;
    EXPECT_FALSE(ScheduleFile::tryLoad(path, out, err));
    EXPECT_NE(err.message.find("trailer"), std::string::npos);
}

TEST(ScheduleFileTest, WitnessSavedFromAnExplorationReplays)
{
    ExploreOptions o;
    o.maxRuns = 50000;
    ExploreResult res = explore(seededBugRun, o);
    ASSERT_TRUE(res.violated);

    ScheduleFile f;
    f.meta["scenario"] = "seeded-bug micro";
    f.meta["report"] = res.report.substr(0, 60);
    f.choices = res.witness;
    std::string path = testing::TempDir() + "/explorer_witness.txt";
    f.save(path);

    ScheduleFile g = ScheduleFile::load(path);
    RunVerdict v = verify::replay(seededBugRun, g.choices);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.report.find("invariant violation"),
              std::string::npos);
}
