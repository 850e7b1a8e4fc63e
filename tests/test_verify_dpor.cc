/**
 * @file
 * Tests of dynamic partial-order reduction and fault-schedule
 * exploration in the bounded explorer (verify/explorer.hh): the
 * dependence predicate, soundness differentials against naive
 * enumeration (same violation fingerprints, strictly fewer runs),
 * fault decision points, the maxFaults d-bound, and decision-kind
 * validation on replay.
 */

#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "mem/dsm.hh"
#include "sim/sim_context.hh"
#include "spec/invariants.hh"
#include "verify/explorer.hh"

using namespace specrt;
using verify::ChoiceKind;
using verify::explore;
using verify::ExploreMode;
using verify::ExploreOptions;
using verify::ExploreResult;
using verify::RunVerdict;

namespace
{

EventChoice
ev(EventKind kind, uint16_t actor, uint64_t seq,
   uint64_t parent = noEventSeq)
{
    EventChoice c{5, kind, actor, false};
    c.seq = seq;
    c.parent = parent;
    return c;
}

/**
 * Three same-tick Network deliveries where exactly one pair is
 * dependent: a and b land at the same node, c at another (so c
 * commutes with both). The run's property fails -- with a stable
 * fingerprint -- whenever b fires before a, which only the
 * dependent pair's order determines: a sound seeded bug for
 * reduction differentials. 6 permutations, but only 2 trace-
 * equivalence classes (a-before-b and b-before-a).
 */
verify::RunFn
onePairRun(std::set<std::string> *orders, std::mutex *mu)
{
    return [orders, mu]() {
        EventQueue eq;
        eq.setScheduleController(
            SimContext::current().scheduleController);
        auto order = std::make_shared<std::string>();
        eq.schedule(5, [order] { *order += 'a'; }, EventKind::Network,
                    0);
        eq.schedule(5, [order] { *order += 'b'; }, EventKind::Network,
                    0);
        eq.schedule(5, [order] { *order += 'c'; }, EventKind::Network,
                    1);
        eq.run();
        if (orders) {
            std::lock_guard<std::mutex> g(*mu);
            orders->insert(*order);
        }
        RunVerdict v;
        if (order->find('b') < order->find('a')) {
            v.ok = false;
            v.report = "b fired before a";
        }
        return v;
    };
}

/** 2-node conflicting-store micro run; optional watchdog recovery. */
RunVerdict
microRun(Cycles watchdog)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.fault.watchdogTimeout = watchdog;
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

    RunVerdict v;
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

} // namespace

TEST(DporDependence, CreationEdgesAreDependent)
{
    // Parent links win over any independence heuristic: a Network
    // event that scheduled another Network event's callback is
    // dependent on it even across distinct actors.
    EventChoice parent = ev(EventKind::Network, 0, 10);
    EventChoice child = ev(EventKind::Network, 1, 11, 10);
    EXPECT_TRUE(verify::dporDependent(parent, child));
    EXPECT_TRUE(verify::dporDependent(child, parent));
}

TEST(DporDependence, DistinctDestinationDeliveriesCommute)
{
    EventChoice n0 = ev(EventKind::Network, 0, 1);
    EventChoice n1 = ev(EventKind::Network, 1, 2);
    EXPECT_FALSE(verify::dporDependent(n0, n1));
}

TEST(DporDependence, SameActorAndCrossKindAreDependent)
{
    EventChoice n0 = ev(EventKind::Network, 0, 1);
    EventChoice n0b = ev(EventKind::Network, 0, 2);
    EventChoice cache = ev(EventKind::Cache, 1, 3);
    EventChoice unk = ev(EventKind::Network, unknownActor, 4);
    EXPECT_TRUE(verify::dporDependent(n0, n0b));
    EXPECT_TRUE(verify::dporDependent(n0, cache));
    EXPECT_TRUE(verify::dporDependent(n0, unk));
}

TEST(Dpor, AllDependentEventsStillEnumerateEveryPermutation)
{
    // Three same-tick pairwise-dependent events (distinct kinds and
    // actors, no Network pair): reduction must not lose a single
    // order.
    std::set<std::string> orders;
    std::mutex mu;
    auto run = [&orders, &mu]() {
        EventQueue eq;
        eq.setScheduleController(
            SimContext::current().scheduleController);
        auto order = std::make_shared<std::string>();
        eq.schedule(5, [order] { *order += 'a'; }, EventKind::Cache,
                    0);
        eq.schedule(5, [order] { *order += 'b'; },
                    EventKind::Directory, 1);
        eq.schedule(5, [order] { *order += 'c'; },
                    EventKind::Processor, 2);
        eq.run();
        {
            std::lock_guard<std::mutex> g(mu);
            orders.insert(*order);
        }
        return RunVerdict{};
    };
    ExploreOptions o;
    o.mode = ExploreMode::Dpor;
    ExploreResult res = explore(run, o);
    EXPECT_FALSE(res.violated) << res.summary();
    EXPECT_EQ(res.runs, 6u);
    std::set<std::string> expect = {"abc", "acb", "bac",
                                    "bca", "cab", "cba"};
    EXPECT_EQ(orders, expect);
}

TEST(Dpor, IndependentPairNeedsOneRunAndNoRaces)
{
    auto run = [] {
        EventQueue eq;
        eq.setScheduleController(
            SimContext::current().scheduleController);
        eq.schedule(5, [] {}, EventKind::Network, 0);
        eq.schedule(5, [] {}, EventKind::Network, 1);
        eq.run();
        return RunVerdict{};
    };
    ExploreResult naive = explore(run);
    EXPECT_EQ(naive.runs, 2u);

    ExploreOptions o;
    o.mode = ExploreMode::Dpor;
    ExploreResult dpor = explore(run, o);
    EXPECT_FALSE(dpor.violated);
    EXPECT_EQ(dpor.runs, 1u);
    EXPECT_EQ(dpor.races, 0u);
}

TEST(Dpor, SameFingerprintsStrictlyFewerRunsOnSeededBug)
{
    // The differential the reduction must win: naive enumeration of
    // the one-dependent-pair scenario takes all 6 permutations; DPOR
    // must reach the same set of distinct violation fingerprints in
    // strictly fewer runs (the trace-equivalence classes number 2).
    std::set<std::string> naive_orders, dpor_orders;
    std::mutex mu;

    ExploreOptions no;
    no.keepGoing = true;
    ExploreResult naive = explore(onePairRun(&naive_orders, &mu), no);
    // runs exceeds the 6 permutations by the witness-shrinking
    // replays; the order set is the coverage measure.
    EXPECT_GE(naive.runs, 6u);
    EXPECT_EQ(naive_orders.size(), 6u);
    ASSERT_TRUE(naive.violated);
    EXPECT_EQ(naive.fingerprints,
              std::set<std::string>{"b fired before a"});

    ExploreOptions do_;
    do_.mode = ExploreMode::Dpor;
    do_.keepGoing = true;
    ExploreResult dpor = explore(onePairRun(&dpor_orders, &mu), do_);
    ASSERT_TRUE(dpor.violated);
    EXPECT_EQ(dpor.fingerprints, naive.fingerprints);
    EXPECT_LT(dpor_orders.size(), naive_orders.size())
        << "reduction explored every permutation";
    EXPECT_LT(dpor.runs, naive.runs)
        << "reduction explored as much as naive: " << dpor.summary();
    EXPECT_GE(dpor_orders.size(), 2u)
        << "fewer orders than trace-equivalence classes -- unsound";

    // Coverage up to commuting c: every naive order has an explored
    // representative with the same relative order of the dependent
    // pair (a, b).
    for (const std::string &o : naive_orders) {
        bool b_first = o.find('b') < o.find('a');
        bool covered = false;
        for (const std::string &d : dpor_orders)
            covered |= (d.find('b') < d.find('a')) == b_first;
        EXPECT_TRUE(covered)
            << "no explored representative for order " << o;
    }
}

TEST(Dpor, ExhaustsTwoNodeProtocolGridMatchingNaiveVerdict)
{
    ExploreOptions no;
    no.maxRuns = 50000;
    no.keepGoing = true;
    ExploreResult naive = explore([] { return microRun(0); }, no);
    EXPECT_FALSE(naive.budgetExhausted);
    EXPECT_FALSE(naive.violated) << naive.summary();

    ExploreOptions do_;
    do_.mode = ExploreMode::Dpor;
    do_.maxRuns = 50000;
    do_.keepGoing = true;
    ExploreResult dpor = explore([] { return microRun(0); }, do_);
    EXPECT_FALSE(dpor.budgetExhausted);
    EXPECT_FALSE(dpor.violated) << dpor.summary();
    EXPECT_EQ(dpor.fingerprints, naive.fingerprints);
    EXPECT_LE(dpor.runs, naive.runs);
}

TEST(FaultExploration, FaultDecisionPointsAppearAndRecover)
{
    // One controlled run with fault decisions live: the controller
    // log must contain Fault decision points (requests and replies
    // of the store/load traffic are drop- or dup-eligible), all
    // taking the default (deliver) branch, and the run stays clean.
    verify::ReplayController rc;
    rc.exploreFaults = true;
    RunVerdict v;
    {
        verify::ScopedScheduleController scope(&rc);
        v = microRun(2000);
    }
    EXPECT_TRUE(v.ok) << v.report;
    size_t fault_points = 0;
    for (const verify::Decision &d : rc.decisions())
        if (d.kind == ChoiceKind::Fault) {
            ++fault_points;
            EXPECT_GE(d.degree, 2u);
            EXPECT_EQ(d.taken, 0u);
        }
    EXPECT_GT(fault_points, 0u);
}

TEST(FaultExploration, ExploredDropAndDupSchedulesStayClean)
{
    // Exhaustively explore every single-fault placement (plus
    // delivery-order choice below them): each dropped request must
    // be recovered by the watchdog retry and each duplicate absorbed
    // -- the serializability + quiescence verdict holds everywhere.
    ExploreOptions o;
    o.exploreFaults = true;
    o.maxFaults = 1;
    o.maxRuns = 20000;
    ExploreResult res = explore([] { return microRun(2000); }, o);
    EXPECT_FALSE(res.violated) << res.summary();
    EXPECT_FALSE(res.budgetExhausted) << res.summary();
    EXPECT_GT(res.runs, 1u);
    EXPECT_GT(res.pruned, 0u) << "fault d-bound never engaged";
}

TEST(FaultExploration, MaxFaultsBoundsTheTree)
{
    ExploreOptions o0;
    o0.exploreFaults = true;
    o0.maxFaults = 0;
    o0.maxRuns = 20000;
    ExploreResult zero = explore([] { return microRun(2000); }, o0);

    ExploreOptions o1 = o0;
    o1.maxFaults = 1;
    ExploreResult one = explore([] { return microRun(2000); }, o1);

    EXPECT_FALSE(zero.violated);
    EXPECT_FALSE(one.violated);
    // No fault budget: only delivery-order branching remains.
    EXPECT_LT(zero.runs, one.runs);
}

TEST(FaultExploration, KindMismatchFlagsForeignSchedule)
{
    // A schedule whose first position claims to be a Fault decision,
    // replayed against a run whose first decision is a Sched pick:
    // the controller must flag the mismatch instead of silently
    // replaying a different experiment.
    verify::ReplayController rc({1});
    rc.expectKinds = {ChoiceKind::Fault};
    {
        verify::ScopedScheduleController scope(&rc);
        microRun(0);
    }
    EXPECT_TRUE(rc.kindMismatch);
}
