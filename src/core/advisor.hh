/**
 * @file
 * Test-selection advisor.
 *
 * Paper section 2.2.4 envisions the compiler (or the programmer)
 * deciding per array whether to apply the non-privatization test,
 * the privatization test, or none, "using heuristics and statistics
 * about the parallelization success-rate in previous executions".
 * The advisor is that statistics engine: given the access trace of a
 * profiled execution, it evaluates every test's verdict per array
 * and recommends the cheapest test that would have passed.
 */

#ifndef SPECRT_CORE_ADVISOR_HH
#define SPECRT_CORE_ADVISOR_HH

#include <string>
#include <vector>

#include "runtime/workload.hh"
#include "spec/oracle.hh"

namespace specrt
{

/** Advice for one array of a loop. */
struct ArrayAdvice
{
    int declIdx = -1;
    std::string name;
    /** Fraction of the loop's traced accesses touching this array. */
    double accessShare = 0;
    bool readOnly = false;
    /** The non-privatization test would pass under the profiled
     *  iteration placement. */
    bool nonPrivOk = false;
    /** ... and under ANY placement (every element single-iteration
     *  or read-only), so the verdict is schedule-robust. */
    bool nonPrivRobust = false;
    /** The privatization test (with read-in/copy-out) would pass. */
    bool privOk = false;
    /** All accesses are tagged reduction accesses. */
    bool reductionOk = false;
    /** Iteration-wise LRPD verdict (the software scheme's view). */
    LrpdVerdict lrpd = LrpdVerdict::NotParallel;
    /** The cheapest run-time test expected to pass, or None when the
     *  array is analyzable / read-only, or NonPriv as the fallback
     *  when nothing passes (fail fast, re-execute serially). */
    TestType recommended = TestType::None;
    /** True when no test is expected to pass. */
    bool expectSerial = false;
};

/**
 * Analyze a profiled trace (e.g.\ from an Ideal run with keepTrace)
 * and advise a test per declared array.
 *
 * @param trace the access trace (AccessEvent::arrayId = decl index)
 * @param decls the workload's array declarations
 */
std::vector<ArrayAdvice> adviseTests(
    const std::vector<AccessEvent> &trace,
    const std::vector<ArrayDecl> &decls);

/** Render advice as a short report. */
std::string adviceReport(const std::vector<ArrayAdvice> &advice);

} // namespace specrt

#endif // SPECRT_CORE_ADVISOR_HH
