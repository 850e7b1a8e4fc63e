#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <sstream>

#include "obs/event_log.hh"

namespace specrt::bench
{

std::vector<PaperLoop> paperLoops()
{
    std::vector<PaperLoop> loops;

    {
        // Ocean ftrvmt.do109: 8 processors, non-privatization test,
        // small working set, strided access; the software scheme
        // uses the processor-wise test (good load balance).
        PaperLoop l;
        l.name = "Ocean";
        l.procs = 8;
        l.make = []() {
            OceanParams p;
            p.stride = 1; // per-iteration columns are contiguous
            return std::make_unique<OceanLoop>(p);
        };
        // Static scheduling: 32 well-balanced iterations on 8
        // processors; contiguous chunks avoid splitting cache lines
        // shared by neighbouring iterations.
        l.xc.sched = SchedPolicy::StaticChunk;
        l.xc.swProcWise = true;
        l.paperIdeal = 5.0;
        l.paperSw = 1.8;
        l.paperHw = 3.5;
        loops.push_back(l);
    }
    {
        // P3m pp.do100: 16 processors, privatization test, large
        // working set, heavy load imbalance -> dynamic scheduling;
        // 15,000 of 97,336 iterations simulated.
        PaperLoop l;
        l.name = "P3m";
        l.procs = 16;
        l.make = []() { return std::make_unique<P3mLoop>(); };
        l.xc.sched = SchedPolicy::Dynamic;
        l.xc.blockIters = 4;
        l.xc.maxIters = quickPick<IterNum>(15000, 2000);
        l.paperIdeal = 12.0;
        l.paperSw = 4.0;
        l.paperHw = 8.0;
        loops.push_back(l);
    }
    {
        // Adm run.do20: 16 processors, mixed non-priv + priv arrays,
        // small working set, good load balance (proc-wise SW test).
        PaperLoop l;
        l.name = "Adm";
        l.procs = 16;
        l.make = []() { return std::make_unique<AdmLoop>(); };
        l.xc.sched = SchedPolicy::Dynamic;
        l.xc.blockIters = 2;
        l.xc.swProcWise = true;
        l.paperIdeal = 10.0;
        l.paperSw = 3.0;
        l.paperHw = 7.0;
        loops.push_back(l);
    }
    {
        // Track nlfilt.do300: 16 processors, four non-priv arrays;
        // the SW test must be processor-wise (static scheduling,
        // hence load imbalance); HW schedules small dynamic blocks.
        PaperLoop l;
        l.name = "Track";
        l.procs = 16;
        l.make = []() {
            TrackParams p;
            p.instance = 7; // representative parallel instance
            return std::make_unique<TrackLoop>(p);
        };
        // Blocks of 16 iterations: "small blocks of a few
        // iterations" that keep each line's slots on one processor
        // while dynamic scheduling rides out the imbalance.
        l.xc.sched = SchedPolicy::Dynamic;
        l.xc.blockIters = 16;
        l.xc.swProcWise = true;
        l.paperIdeal = 6.0;
        l.paperSw = 2.0;
        l.paperHw = 4.0;
        loops.push_back(l);
    }
    return loops;
}

namespace
{

/** FNV-1a over @p n bytes, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const void *p, size_t n)
{
    const auto *b = static_cast<const uint8_t *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 1099511628211ull;
    }
    return h;
}

constexpr uint64_t fnvBasis = 14695981039346656037ull;

/**
 * The simulated outputs of one finished run, as the members of one
 * JSON object: workload, processors, mode, verdict, total and
 * per-phase ticks, iterations, the abort iteration and node,
 * busy/sync/mem cycles, and FNV-1a hashes of the stats snapshot
 * (machine and speculation hardware) and of final memory. Engine
 * outputs such as events fired are left out: they may change while
 * the model does not. Hashing walks all of memory, so only
 * --golden-out pays it.
 */
std::string
goldenRow(LoopExecutor &exec, const Workload &w, const RunResult &r)
{
    StatSnapshot snap;
    exec.machine().snapshot(snap);
    if (exec.specSystem())
        exec.specSystem()->snapshot(snap);
    uint64_t stats = fnvBasis;
    for (const auto &[key, value] : snap) {
        std::string v = obs::jsonNumber(value);
        stats = fnv1a(stats, key.data(), key.size() + 1);
        stats = fnv1a(stats, v.data(), v.size() + 1);
    }

    const AddrMap &mem = exec.machine().memory();
    uint64_t memory = fnvBasis;
    uint8_t buf[4096];
    for (size_t id = 0; id < mem.numRegions(); ++id) {
        const Region &reg = mem.region(static_cast<int>(id));
        memory = fnv1a(memory, reg.name.data(), reg.name.size() + 1);
        memory = fnv1a(memory, &reg.base, sizeof(reg.base));
        for (uint64_t off = 0; off < reg.bytes; off += sizeof(buf)) {
            uint32_t n = static_cast<uint32_t>(
                std::min<uint64_t>(sizeof(buf), reg.bytes - off));
            mem.readLine(reg.base + off, buf, n);
            memory = fnv1a(memory, buf, n);
        }
    }

    const PhaseTimes &p = r.phases;
    std::ostringstream os;
    os << "\"loop\": \"" << obs::jsonEscape(w.name())
       << "\", \"procs\": " << exec.machine().numProcs()
       << ", \"mode\": \"" << execModeName(r.mode)
       << "\", \"passed\": " << (r.passed ? "true" : "false")
       << ", \"ticks\": " << r.totalTicks << ", \"phases\": [";
    const Tick phases[] = {p.zeroOut, p.backup, p.loop,
                           p.merge, p.analysis, p.copyOut,
                           p.reduction, p.restore, p.serial};
    for (size_t i = 0; i < std::size(phases); ++i)
        os << (i ? ", " : "") << phases[i];
    os << "], \"iters\": " << r.itersExecuted << ", \"abort\": ";
    if (r.hwFailure.failed) {
        os << "{\"iter\": " << r.hwFailure.iter
           << ", \"node\": " << r.hwFailure.node << "}";
    } else {
        os << "null";
    }
    char hashes[64];
    std::snprintf(hashes, sizeof(hashes),
                  "\"stats\": \"%016llx\", \"memory\": \"%016llx\"",
                  (unsigned long long)stats, (unsigned long long)memory);
    os << ", \"busy\": " << obs::jsonNumber(r.agg.busy)
       << ", \"sync\": " << obs::jsonNumber(r.agg.sync)
       << ", \"mem\": " << obs::jsonNumber(r.agg.mem) << ", " << hashes;
    return os.str();
}

} // namespace

RunResult
runMachine(const MachineConfig &cfg, Workload &w, const ExecConfig &xc)
{
    LoopExecutor exec(cfg, w, xc);
    RunResult r = exec.run();
    telemetry().recordRun(r);
    telemetry().snapshotStats(exec.machine());
    if (goldenRecording())
        telemetry().golden.push_back(goldenRow(exec, w, r));
    return r;
}

RunResult
runScenario(const PaperLoop &loop, ExecMode mode)
{
    return runScenarioWith(loop, mode, loop.procs);
}

RunResult
runScenarioWith(const PaperLoop &loop, ExecMode mode, int procs)
{
    MachineConfig cfg;
    cfg.numProcs = procs;
    auto w = loop.make();
    ExecConfig xc = loop.xc;
    xc.mode = mode;
    return runMachine(cfg, *w, xc);
}

ScenarioComparison
runAll(const PaperLoop &loop)
{
    ScenarioComparison c;
    c.serial = runScenario(loop, ExecMode::Serial);
    c.ideal = runScenario(loop, ExecMode::Ideal);
    c.sw = runScenario(loop, ExecMode::SW);
    c.hw = runScenario(loop, ExecMode::HW);
    return c;
}

void
printHeader(const std::string &title)
{
    std::printf("\n%s\n", title.c_str());
    std::printf("%s\n", std::string(title.size(), '-').c_str());
}

void
printRow(const std::vector<std::string> &cells,
         const std::vector<int> &widths)
{
    for (size_t i = 0; i < cells.size(); ++i) {
        int w = i < widths.size() ? widths[i] : 10;
        std::printf("%-*s", w, cells[i].c_str());
    }
    std::printf("\n");
}

std::string
fmt(double v, int prec)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
    return buf;
}

std::string
fmtTicks(Tick t)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)t);
    return buf;
}

} // namespace specrt::bench
