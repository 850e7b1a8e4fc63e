/**
 * @file
 * Instance-scoped simulator state.
 *
 * Historically the sim layer kept its cross-cutting mutable state in
 * process globals: the log sink registry, the trace enable latch and
 * its ring buffer, the trace loop-id counter, and ad-hoc RNG streams.
 * That was fine while one process modeled one machine, but it made
 * concurrent simulator instances impossible -- every experiment the
 * paper's evaluation needs (seeded torture grids, figure sweeps,
 * ablation benches) is a fleet of *independent* single-threaded
 * simulations that should fan out across host cores.
 *
 * A SimContext owns all of that state for one simulator instance:
 *
 *  - the log sink and throw-on-fatal flag (sim/logging.hh);
 *  - the observability recorders -- trace ring, timeline,
 *    critical-path recorder, event log -- and where they are written
 *    (obs/sinks.hh), plus the trace's loop-id counter
 *    (sim/trace.hh);
 *  - named deterministic RNG streams derived from a base seed
 *    (sim/random.hh).
 *
 * Stats were already instance-scoped (every StatBase registers with
 * a StatGroup owned by its machine), so they need no home here;
 * campaign aggregation merges per-machine StatGroup::snapshot()s.
 * Message copies in flight need none either: each machine's network
 * pools its own (mem/network.hh).
 *
 * Threading model: each simulator instance stays SINGLE-THREADED
 * (see logging.hh), but different instances may run on different
 * host threads concurrently. The *current* context is a thread-local
 * pointer; every thread starts with its own default context, and
 * ScopedSimContext activates a specific instance for a scope (the
 * campaign runner does this around each job) and refreshes the probe
 * word (sim/probe.hh). Sim-layer code reaches its state through
 * SimContext::current(), which therefore never observes another
 * thread's context.
 */

#ifndef SPECRT_SIM_SIM_CONTEXT_HH
#define SPECRT_SIM_SIM_CONTEXT_HH

#include <cstdint>
#include <map>
#include <string>

#include "obs/sinks.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace specrt
{

class ScheduleController;

class SimContext
{
  public:
    /** @param seed base seed of the context's named RNG streams. */
    explicit SimContext(uint64_t seed = 0) : baseSeed(seed) {}

    /**
     * Writes the sinks that are on to obsDir, when set (obs::apply).
     * This happens in the destructor -- not an atexit handler --
     * because the main thread's default context is itself
     * thread-local, and C++ destroys thread-locals before atexit
     * handlers run.
     */
    ~SimContext();

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /**
     * The context active on this host thread. Never null: a thread
     * that has not activated one explicitly gets its own default
     * context (created on first use, destroyed at thread exit).
     */
    static SimContext &current();

    // --- logging (accessed by sim/logging.cc) -------------------------

    /** Captures log output instead of stderr when set. */
    LogSink logSink;
    /** fatal()/panic() throw FatalError instead of terminating. */
    bool logThrowOnFatal = false;

    // --- observability (obs/sinks.hh) ---------------------------------

    /** Trace ring, timeline, critical-path recorder, event log. */
    obs::Sinks sinks;
    /** Where this context writes its sinks when it dies ("" = not). */
    std::string obsDir;
    /**
     * Set up by obs::apply() or obs::fanOut(); the environment
     * (SPECRT_OBS) no longer applies to this context.
     */
    bool obsConfigured = false;

    /** Loop ids handed out by trace::nextLoopId(). */
    uint32_t traceNextLoopId = 0;

    /**
     * Fingerprint (hex MachineConfig::fingerprint()) of the last
     * machine a LoopExecutor ran under this context; "" until a run
     * happens. Campaign outcomes carry it so a failure line names
     * the exact config to replay (campaign::describeFailures).
     */
    std::string configFingerprint;

    // --- schedule exploration (read by mem/dsm.cc) --------------------

    /**
     * Controller every DsmSystem constructed under this context
     * installs into its event queue (sim/event_queue.hh). The
     * explorer (verify/explorer.hh) sets this around a run so the
     * machine built deep inside LoopExecutor::run() comes up
     * controlled; null (the default) means the plain deterministic
     * schedule. Not owned.
     */
    ScheduleController *scheduleController = nullptr;

    // --- deterministic randomness -------------------------------------

    /** Base seed the named streams derive from. */
    uint64_t baseSeed = 0;

    /**
     * The named RNG stream @p name, created (seeded from baseSeed and
     * the stream name) on first use. Distinct names give independent,
     * reproducible streams; the same (baseSeed, name) always yields
     * the same sequence.
     */
    Rng &rng(const std::string &name);

    /** Reset every named stream to its initial seeded state. */
    void reseed(uint64_t seed);

  private:
    std::map<std::string, Rng> rngs;
};

/**
 * RAII activation of a SimContext on the calling thread. The
 * previous context (possibly the thread default) is restored on
 * destruction. Not copyable; scopes nest.
 */
class ScopedSimContext
{
  public:
    explicit ScopedSimContext(SimContext &ctx);
    ~ScopedSimContext();

    ScopedSimContext(const ScopedSimContext &) = delete;
    ScopedSimContext &operator=(const ScopedSimContext &) = delete;

  private:
    SimContext *prev;
};

} // namespace specrt

#endif // SPECRT_SIM_SIM_CONTEXT_HH
