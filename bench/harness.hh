/**
 * @file
 * Shared infrastructure for the paper-reproduction benchmarks.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation (section 6). The harness provides the four loops in
 * their paper configurations (section 5.2), run helpers, and table
 * printing.
 */

#ifndef SPECRT_BENCH_HARNESS_HH
#define SPECRT_BENCH_HARNESS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/parallelizer.hh"
#include "telemetry.hh"
#include "workloads/adm.hh"
#include "workloads/microloops.hh"
#include "workloads/ocean.hh"
#include "workloads/p3m.hh"
#include "workloads/track.hh"

namespace specrt::bench
{

/** One of the paper's loops in its section-5.2 configuration. */
struct PaperLoop
{
    std::string name;
    /** Processors the paper runs it with (Ocean: 8, others: 16). */
    int procs;
    /** Factory: a fresh workload instance. */
    std::function<std::unique_ptr<Workload>()> make;
    /** Base execution config (scheduling etc.). */
    ExecConfig xc;
    /** Paper-reported speedups (eyeballed from Figure 11). */
    double paperIdeal;
    double paperSw;
    double paperHw;
};

/**
 * The four loops, paper-configured. Under --quick the expensive
 * iteration caps shrink to CI-smoke sizes (the figures' shapes
 * survive; the absolute numbers are only comparable to other quick
 * runs).
 */
std::vector<PaperLoop> paperLoops();

/**
 * Run one executor and fold the result into the telemetry
 * accumulator. All bench-driven runs should funnel through here so
 * BENCH_results.json sees every simulated tick. Under --golden-out
 * it also records the run's simulated outputs (see harness.cc).
 */
RunResult runMachine(const MachineConfig &cfg, Workload &w,
                     const ExecConfig &xc);

/** Run one scenario of a paper loop. */
RunResult runScenario(const PaperLoop &loop, ExecMode mode);

/** Run one scenario with a processor-count override (Fig. 14). */
RunResult runScenarioWith(const PaperLoop &loop, ExecMode mode,
                          int procs);

/** Run all four scenarios. */
ScenarioComparison runAll(const PaperLoop &loop);

// --- table printing ---------------------------------------------------

/** Print a header line followed by a rule. */
void printHeader(const std::string &title);

/** Print one row of fixed-width cells. */
void printRow(const std::vector<std::string> &cells,
              const std::vector<int> &widths);

/** Format helpers. */
std::string fmt(double v, int prec = 2);
std::string fmtTicks(Tick t);

} // namespace specrt::bench

#endif // SPECRT_BENCH_HARNESS_HH
