/**
 * @file
 * Failure handling end to end: run a genuinely serial loop
 * (Figure 1(a): A(i) = A(i) + A(i-1)) speculatively, watch the
 * hardware abort on the first cross-iteration dependence, restore
 * the checkpoint, and re-execute serially -- and compare with the
 * software scheme, which only learns of the failure after the whole
 * loop, the merge, and the analysis have run.
 *
 * Run with SPECRT_OBS=trace SPECRT_OBS_DIR=abort to also capture the
 * protocol trace of the abort in abort/trace.json (Chrome/Perfetto
 * trace-event JSON; see EXPERIMENTS.md, "Tracing a speculative
 * abort"). The reconstructed abort cause prints below when tracing
 * is on.
 */

#include <cstdio>

#include "core/parallelizer.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

void
phaseLine(const char *name, Tick t)
{
    if (t)
        std::printf("    %-10s %10llu cycles\n", name,
                    (unsigned long long)t);
}

void
report(const char *title, const RunResult &r)
{
    std::printf("\n%s: %llu cycles total, test %s\n", title,
                (unsigned long long)r.totalTicks,
                r.passed ? "passed" : "FAILED");
    phaseLine("backup", r.phases.backup);
    phaseLine("zero-out", r.phases.zeroOut);
    phaseLine("loop", r.phases.loop);
    phaseLine("merge", r.phases.merge);
    phaseLine("analysis", r.phases.analysis);
    phaseLine("restore", r.phases.restore);
    phaseLine("serial", r.phases.serial);
    std::printf("    iterations speculated: %llu\n",
                (unsigned long long)r.itersExecuted);
}

} // namespace

int
main()
{
    MachineConfig cfg;
    cfg.numProcs = 8;
    SpeculativeParallelizer spec(cfg);
    std::printf("machine: %s\n", cfg.summary().c_str());
    std::printf("loop: do i: A(i) = A(i) + A(i-1)  (512 iterations; "
                "every iteration depends on the previous one)\n");

    Fig1ALoop loop(512);

    ExecConfig xc;
    xc.sched = SchedPolicy::Dynamic;
    xc.blockIters = 2;

    xc.mode = ExecMode::Serial;
    RunResult serial = spec.run(loop, xc);
    report("Serial", serial);

    xc.mode = ExecMode::HW;
    RunResult hw = spec.run(loop, xc);
    report("HW speculation", hw);
    std::printf("    abort reason: %s (node %d)\n",
                hw.hwFailure.reason.c_str(), hw.hwFailure.node);
    if (hw.hwFailure.cause.valid)
        std::printf("    %s\n", hw.hwFailure.cause.str().c_str());

    xc.mode = ExecMode::SW;
    RunResult sw = spec.run(loop, xc);
    report("SW (LRPD)", sw);

    double hw_over = static_cast<double>(hw.totalTicks) /
                     static_cast<double>(serial.totalTicks);
    double sw_over = static_cast<double>(sw.totalTicks) /
                     static_cast<double>(serial.totalTicks);
    std::printf("\nslowdown vs plain serial execution: HW %.2fx, "
                "SW %.2fx\n", hw_over, sw_over);
    std::printf("The hardware detected the dependence after %llu of "
                "512 iterations; the software ran all 512 plus the "
                "test phases before it could tell.\n",
                (unsigned long long)hw.itersExecuted);
    return 0;
}
