/**
 * @file
 * Machine-level property tests over seeded random loops:
 *
 *  (1) soundness -- whenever the full hardware protocol passes a
 *      run, the oracle's predicate holds on the actual scheduled
 *      trace (non-privatization) or on the loop's access pattern
 *      (privatization, schedule-independent);
 *  (2) completeness -- for static scheduling (deterministic
 *      placement) the non-privatization verdict exactly equals the
 *      oracle's; the privatization verdict always exactly equals
 *      the oracle's;
 *  (3) state safety -- pass or fail, the final shared-memory state
 *      equals serial execution's (failures restore + re-execute;
 *      passing privatized runs copy out).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "runtime/scheduler.hh"
#include "sim/campaign.hh"
#include "sim/sim_context.hh"
#include "spec/oracle.hh"
#include "spec/priv.hh"
#include "spec/priv_compact.hh"
#include "verify/hb_oracle.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

std::vector<uint64_t>
arrayContents(LoopExecutor &exec, int decl)
{
    const Region *r = exec.sharedRegion(decl);
    std::vector<uint64_t> out(r->numElems());
    for (uint64_t e = 0; e < r->numElems(); ++e)
        out[e] = exec.machine().memory().read(r->elemAddr(e),
                                              r->elemBytes);
    return out;
}

/** The loop's full trace with static-chunk processor placement. */
std::vector<AccessEvent>
staticPlacedTrace(const RandomLoop &loop, IterNum iters, int procs)
{
    StaticChunkSource chunks(iters, procs);
    std::vector<NodeId> owner(iters + 1, 0);
    for (NodeId p = 0; p < procs; ++p) {
        auto [lo, hi] = chunks.chunkOf(p);
        for (IterNum i = lo; i < hi; ++i)
            owner[i] = p;
    }
    std::vector<AccessEvent> placed = loop.expectedTrace();
    for (AccessEvent &e : placed)
        e.proc = owner[e.iter];
    return placed;
}

struct PropCase
{
    uint64_t seed;
    int procs;
    RandomLoopParams params;
    SchedPolicy sched;
    IterNum block;
};

/** The case's fields as CMake's ctest name shows them after the
 *  gtest name (default: the struct's bytes, padding included). */
void
PrintTo(const PropCase &c, std::ostream *os)
{
    const RandomLoopParams &p = c.params;
    *os << "seed " << c.seed << ", " << c.procs << " procs, " << p.iters
        << " iters, " << p.elems << " elems, " << p.accesses
        << " accesses, write prob " << p.writeProb << ", window "
        << p.window << ", " << schedPolicyName(c.sched) << " block "
        << c.block;
}

class MachineProperty : public ::testing::TestWithParam<PropCase>
{
};

} // namespace

TEST_P(MachineProperty, VerdictAndState)
{
    PropCase pc = GetParam();
    MachineConfig cfg;
    cfg.numProcs = pc.procs;

    for (int round = 0; round < 6; ++round) {
        RandomLoopParams rp = pc.params;
        rp.seed = pc.seed * 1000 + round;
        RandomLoop loop(rp);

        ExecConfig sxc;
        sxc.mode = ExecMode::Serial;
        LoopExecutor serial(cfg, loop, sxc);
        RunResult sres = serial.run();
        ASSERT_TRUE(sres.passed);
        auto sa = arrayContents(serial, 0);

        ExecConfig xc;
        xc.mode = ExecMode::HW;
        xc.sched = pc.sched;
        xc.blockIters = pc.block;
        xc.keepTrace = true;
        LoopExecutor hw(cfg, loop, xc);
        RunResult hres = hw.run();
        auto ha = arrayContents(hw, 0);

        if (rp.test == TestType::NonPriv) {
            if (hres.passed) {
                // Soundness: the scheduled pattern truly qualifies.
                EXPECT_TRUE(Oracle::nonPrivParallel(hres.trace))
                    << "seed " << rp.seed;
            }
            if (pc.sched == SchedPolicy::StaticChunk) {
                // Deterministic placement: exact equivalence.
                bool oracle_ok = Oracle::nonPrivParallel(
                    staticPlacedTrace(loop, rp.iters, pc.procs));
                EXPECT_EQ(hres.passed, oracle_ok)
                    << "seed " << rp.seed;
            }
        } else {
            bool oracle_ok =
                Oracle::privParallel(loop.expectedTrace());
            EXPECT_EQ(hres.passed, oracle_ok) << "seed " << rp.seed;
        }

        EXPECT_EQ(ha, sa) << "state diverged from serial (seed "
                          << rp.seed << ", passed=" << hres.passed
                          << ")";
    }
}

constexpr PropCase kNonPrivCases[] = {
    {21, 4, {32, 512, 3, 0.4, 1, TestType::NonPriv, 0},
     SchedPolicy::Dynamic, 4},
    {22, 4, {24, 16, 3, 0.5, 16, TestType::NonPriv, 0},
     SchedPolicy::Dynamic, 2},
    {23, 8, {48, 64, 4, 0.2, 64, TestType::NonPriv, 0},
     SchedPolicy::BlockCyclic, 4},
    {24, 8, {48, 64, 4, 0.0, 64, TestType::NonPriv, 0},
     SchedPolicy::Dynamic, 4},
    {25, 2, {16, 8, 2, 0.9, 8, TestType::NonPriv, 0},
     SchedPolicy::StaticChunk, 4},
    {26, 8, {64, 32, 3, 0.3, 32, TestType::NonPriv, 0},
     SchedPolicy::StaticChunk, 4},
};

constexpr PropCase kPrivCases[] = {
    {31, 4, {32, 64, 4, 0.6, 64, TestType::Priv, 0},
     SchedPolicy::Dynamic, 4},
    {32, 8, {40, 16, 3, 0.5, 16, TestType::Priv, 0},
     SchedPolicy::BlockCyclic, 2},
    {33, 4, {24, 8, 4, 0.8, 8, TestType::Priv, 0},
     SchedPolicy::StaticChunk, 4},
    {34, 8, {64, 128, 3, 0.05, 128, TestType::Priv, 0},
     SchedPolicy::Dynamic, 8},
};

// Cases are named by seed; PrintTo() gives the rest of the fields.
const auto caseName = [](const ::testing::TestParamInfo<PropCase> &info) {
    return "Seed" + std::to_string(info.param.seed);
};

INSTANTIATE_TEST_SUITE_P(NonPrivSweep, MachineProperty,
                         ::testing::ValuesIn(kNonPrivCases), caseName);

INSTANTIATE_TEST_SUITE_P(PrivSweep, MachineProperty,
                         ::testing::ValuesIn(kPrivCases), caseName);

TEST(MachineProperty, ReadOnlyRandomLoopsAlwaysPassNonPriv)
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        RandomLoopParams rp{48, 64, 4, 0.0, 64, TestType::NonPriv,
                            seed};
        RandomLoop loop(rp);
        ExecConfig xc;
        xc.mode = ExecMode::HW;
        LoopExecutor hw(cfg, loop, xc);
        EXPECT_TRUE(hw.run().passed) << "seed " << seed;
    }
}

TEST(MachineProperty, SingleProcessorHwAlwaysPassesNonPriv)
{
    // With one processor every element is trivially single-processor
    // and the non-privatization test can never fail.
    MachineConfig cfg;
    cfg.numProcs = 1;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        RandomLoopParams rp{32, 8, 4, 0.6, 8, TestType::NonPriv,
                            seed};
        RandomLoop loop(rp);
        ExecConfig xc;
        xc.mode = ExecMode::HW;
        LoopExecutor hw(cfg, loop, xc);
        EXPECT_TRUE(hw.run().passed) << "seed " << seed;
    }
}

TEST(MachineProperty, SwVerdictMatchesLrpdOracleUnderStaticChunk)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    for (uint64_t seed = 41; seed <= 46; ++seed) {
        RandomLoopParams rp{24, 16, 3, 0.4, 16, TestType::NonPriv,
                            seed};
        RandomLoop loop(rp);
        ExecConfig xc;
        xc.mode = ExecMode::SW;
        xc.sched = SchedPolicy::StaticChunk;
        LoopExecutor sw(cfg, loop, xc);
        RunResult res = sw.run();
        LrpdVerdict v = Oracle::lrpd(
            staticPlacedTrace(loop, rp.iters, cfg.numProcs));
        EXPECT_EQ(res.passed, v == LrpdVerdict::Doall)
            << "seed " << seed;
    }
}

// --- six-way differential suite (campaign-driven) ---------------------
//
// One generated loop pattern, six independent checkers:
//
//   1. serial execution        -- the state oracle (final contents);
//   2. priv HW machine (§3.3)  -- full protocol, time-stamp state;
//   3. priv_compact pure logic (§4.1) -- 3-bit state, driven below;
//   4. software LRPD with read-in (§2.2.3), iteration-wise;
//   5. non-priv HW machine (§3.2) -- the same loop downgraded;
//   6. vector-clock happens-before oracle (verify/hb_oracle.hh) --
//      DRD-style race analysis of the placed trace.
//
// Agreement means: checkers 2-4 all equal Oracle::privParallel on the
// loop's access pattern; checker 5 equals Oracle::nonPrivParallel on
// the statically placed trace; checker 6's two race verdicts equal
// both; and every machine run's final memory
// equals checker 1's. Cases fan out through the campaign runner --
// one job per generated case, parameters drawn from the job context's
// seeded RNG streams, errors reported through JobOutcome-adjacent
// id-indexed slots (no gtest assertions off the main thread).

namespace
{

/**
 * Pure-logic privatization verdict over the compact (3-bit) private
 * directory: drive each processor's statically placed, ascending-
 * iteration access sequence through PrivCompactBits per element,
 * mirroring the machine's wiring -- a needed read-in probes the
 * shared directory as a read-first (read) or first-write (write)
 * and the access retries after the fill; explicit signals probe the
 * shared stamps directly. Single-element lines: each element's first
 * access by a processor sees an untouched line.
 */
bool
privCompactParallel(const std::vector<AccessEvent> &placed,
                    uint64_t elems, int procs)
{
    std::vector<std::vector<PrivCompactBits>> pd(
        procs, std::vector<PrivCompactBits>(elems));
    std::vector<std::vector<bool>> touched(
        procs, std::vector<bool>(elems, false));
    std::vector<PrivSharedDirBits> sd(elems);
    bool ok = true;

    auto probe = [&](uint64_t elem, IterNum iter, bool as_write) {
        PrivSDirResult r = as_write
                               ? privSDirFirstWrite(sd[elem], iter)
                               : privSDirReadFirst(sd[elem], iter);
        if (r.fail)
            ok = false;
    };

    for (const AccessEvent &e : placed) {
        PrivCompactBits &b = pd[e.proc][e.elem];
        bool untouched = !touched[e.proc][e.elem];
        auto access = [&](bool line_untouched) {
            return e.isWrite
                       ? privCompactWrite(b, e.iter, line_untouched)
                       : privCompactRead(b, e.iter, line_untouched);
        };
        PrivPDirResult r = access(untouched);
        if (r.needReadIn) {
            probe(e.elem, e.iter, e.isWrite);
            privCompactReadInDone(b, e.iter, e.isWrite);
            r = access(false); // the deferred access retries
        }
        touched[e.proc][e.elem] = true;
        if (r.readFirst)
            probe(e.elem, e.iter, false);
        if (r.firstWrite)
            probe(e.elem, e.iter, true);
    }
    return ok;
}

/**
 * One differential case; returns "" on agreement, else a
 * description of every divergence found.
 */
std::string
runDifferentialCase(SimContext &ctx, size_t id)
{
    Rng &gen = ctx.rng("diffgen");
    int procs = 2 << gen.nextBounded(3); // 2, 4, or 8
    RandomLoopParams rp;
    rp.iters = 16 + static_cast<IterNum>(gen.nextBounded(25));
    rp.elems = 8u << gen.nextBounded(3); // 8, 16, or 32
    rp.accesses = 2 + static_cast<int>(gen.nextBounded(3));
    rp.writeProb = 0.1 * static_cast<double>(gen.nextBounded(9));
    rp.window = rp.elems;
    rp.test = TestType::Priv;
    rp.seed = gen.next();
    RandomLoop loop(rp);

    MachineConfig cfg;
    cfg.numProcs = procs;
    std::ostringstream err;
    auto ctx_str = [&]() {
        std::ostringstream os;
        os << "case " << id << " (procs " << procs << ", iters "
           << rp.iters << ", elems " << rp.elems << ", wp "
           << rp.writeProb << ", seed " << rp.seed << "): ";
        return os.str();
    };

    // 1. Serial: the state oracle.
    ExecConfig sxc;
    sxc.mode = ExecMode::Serial;
    LoopExecutor serial(cfg, loop, sxc);
    if (!serial.run().passed)
        return ctx_str() + "serial run failed";
    auto want = arrayContents(serial, 0);

    bool priv_ok = Oracle::privParallel(loop.expectedTrace());
    auto placed = staticPlacedTrace(loop, rp.iters, procs);
    bool nonpriv_ok = Oracle::nonPrivParallel(placed);

    // 2. Priv HW (static placement, deterministic).
    ExecConfig hxc;
    hxc.mode = ExecMode::HW;
    hxc.sched = SchedPolicy::StaticChunk;
    LoopExecutor hw(cfg, loop, hxc);
    RunResult hres = hw.run();
    if (hres.passed != priv_ok)
        err << ctx_str() << "priv HW verdict " << hres.passed
            << " != oracle " << priv_ok << "\n";
    if (arrayContents(hw, 0) != want)
        err << ctx_str() << "priv HW final state != serial\n";

    // 3. priv_compact pure logic.
    bool compact_ok = privCompactParallel(placed, rp.elems, procs);
    if (compact_ok != priv_ok)
        err << ctx_str() << "priv_compact verdict " << compact_ok
            << " != oracle " << priv_ok << "\n";

    // 4. Software LRPD with the read-in extension (iteration-wise).
    ExecConfig wxc;
    wxc.mode = ExecMode::SW;
    wxc.sched = SchedPolicy::StaticChunk;
    wxc.swReadIn = true;
    LoopExecutor sw(cfg, loop, wxc);
    RunResult wres = sw.run();
    if (wres.passed != priv_ok)
        err << ctx_str() << "SW LRPD verdict " << wres.passed
            << " != oracle " << priv_ok << "\n";
    if (arrayContents(sw, 0) != want)
        err << ctx_str() << "SW LRPD final state != serial\n";

    // 5. Non-priv HW: same pattern under the §3.2 algorithm.
    ExecConfig nxc;
    nxc.mode = ExecMode::HW;
    nxc.sched = SchedPolicy::StaticChunk;
    nxc.downgradePrivToNonPriv = true;
    LoopExecutor np(cfg, loop, nxc);
    RunResult nres = np.run();
    if (nres.passed != nonpriv_ok)
        err << ctx_str() << "non-priv HW verdict " << nres.passed
            << " != oracle " << nonpriv_ok << "\n";
    if (arrayContents(np, 0) != want)
        err << ctx_str() << "non-priv HW final state != serial\n";

    // 6. Happens-before oracle: vector clocks over the placed trace
    // under the free doall schedule. Its flow-race verdict must
    // equal the privatization oracle and its data-race verdict the
    // non-privatization one.
    verify::HbReport hb =
        verify::HbOracle::analyzeTrace(placed, procs, rp.iters);
    if (hb.privOk != priv_ok)
        err << ctx_str() << "HB oracle priv verdict " << hb.privOk
            << " != oracle " << priv_ok << "\n";
    if (hb.nonPrivOk != nonpriv_ok)
        err << ctx_str() << "HB oracle non-priv verdict "
            << hb.nonPrivOk << " != oracle " << nonpriv_ok << "\n";
    if (!hb.privOk && hb.privRaces.empty())
        err << ctx_str() << "HB oracle failed priv without a race\n";
    if (!hb.nonPrivOk && hb.nonPrivRaces.empty())
        err << ctx_str()
            << "HB oracle failed non-priv without a race\n";

    return err.str();
}

} // namespace

TEST(MachineDifferential, SixCheckersAgreeOn200GeneratedCases)
{
    const size_t cases = 200;
    std::vector<std::string> errors(cases);
    campaign::Options opts;
    opts.jobs = 4;
    opts.baseSeed = 0xd1ffu;
    auto outcomes = campaign::run(
        cases,
        [&](size_t id, SimContext &ctx) {
            errors[id] = runDifferentialCase(ctx, id);
        },
        opts);
    ASSERT_TRUE(campaign::allOk(outcomes))
        << campaign::describeFailures(outcomes);
    size_t bad = 0;
    for (const std::string &e : errors) {
        if (!e.empty() && ++bad <= 5)
            ADD_FAILURE() << e;
    }
    EXPECT_EQ(bad, 0u) << bad << " of " << cases
                       << " cases diverged";
    // Both verdict classes must actually occur, or the sweep proves
    // nothing: re-derive the oracle side to check coverage.
    size_t priv_pass = 0;
    campaign::Options again = opts;
    std::atomic<size_t> passes{0};
    campaign::run(
        cases,
        [&](size_t, SimContext &ctx) {
            Rng &gen = ctx.rng("diffgen");
            int procs = 2 << gen.nextBounded(3);
            RandomLoopParams rp;
            rp.iters = 16 + static_cast<IterNum>(gen.nextBounded(25));
            rp.elems = 8u << gen.nextBounded(3);
            rp.accesses = 2 + static_cast<int>(gen.nextBounded(3));
            rp.writeProb = 0.1 * static_cast<double>(gen.nextBounded(9));
            rp.window = rp.elems;
            rp.test = TestType::Priv;
            rp.seed = gen.next();
            RandomLoop loop(rp);
            (void)procs;
            if (Oracle::privParallel(loop.expectedTrace()))
                ++passes;
        },
        again);
    priv_pass = passes.load();
    EXPECT_GT(priv_pass, 0u);
    EXPECT_LT(priv_pass, cases);
}
