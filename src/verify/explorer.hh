/**
 * @file
 * Bounded state-space explorer for the coherence + speculation
 * protocol (the other half of the verification subsystem; see
 * verify/hb_oracle.hh for the happens-before checker).
 *
 * The simulator is deterministic: same-tick events fire in schedule
 * order. That determinism is what makes runs reproducible -- and
 * what hides every interleaving but one. The explorer drives the
 * engine's ScheduleController hook (sim/event_queue.hh) to
 * systematically enumerate the others: at each point where two or
 * more events are ready at the minimum pending tick, the controller
 * picks which fires, so a run is fully described by its CHOICE STACK
 * -- the branch index taken at each decision point, with 0 (the
 * default engine order) assumed beyond the stack's end. With
 * exploreFaults on, network fault decisions (which tolerated message
 * is dropped or duplicated) become decision points on the same
 * stack, so the DFS explores fault placement, not just delivery
 * order.
 *
 * Exploration is stateless (CHESS-style): each schedule is a
 * complete re-execution from a fresh machine under a
 * ReplayController primed with the choice stack. Two modes drive the
 * walk:
 *
 *  - Naive: every branch of every decision point is scheduled for
 *    exploration (the PR 6 behaviour). Budgets bound the walk --
 *    maxDepth stops branching below a prefix length, maxBranch caps
 *    the alternatives tried per point, maxRuns caps total schedules
 *    -- and an optional independence relation prunes commuting
 *    siblings (sleep-set style).
 *
 *  - Dpor: dynamic partial-order reduction (Flanagan/Godefroid).
 *    Initially only the default branch of each point is taken; after
 *    each run a happens-before analysis over the fired events (the
 *    dependence relation closed under creation edges -- event A
 *    scheduled B's callback) finds RACES: same-tick dependent pairs
 *    not ordered by an intermediate event. Fire ticks are
 *    schedule-independent in this engine (callbacks schedule at
 *    curTick + delay; a controller only permutes within a tick), so
 *    cross-tick dependent pairs are unreversible and need no
 *    backtracking -- only same-tick races seed backtrack branches at
 *    the decision point that fired the earlier event. Sleep-set
 *    sibling pruning still applies on top. Fault decision points get
 *    every branch (no commutativity theory for faults), bounded by
 *    maxFaults.
 *
 * A failing schedule is shrunk -- shortest failing prefix, then each
 * choice lowered toward the default -- and can be serialized as a
 * schedule file for replay (examples/model_check --replay-schedule).
 *
 * Parallel exploration partitions the tree by choice prefix and fans
 * the subtrees across the campaign's worker threads: each prefix
 * becomes one campaign job exploring with that prefix locked, so
 * results are deterministic in job-id order. The breadth-first
 * partition expands EVERY branch of the top levels -- a superset of
 * what DPOR would demand -- so prefix-locking loses no coverage.
 */

#ifndef SPECRT_VERIFY_EXPLORER_HH
#define SPECRT_VERIFY_EXPLORER_HH

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "sim/campaign.hh"
#include "sim/event_queue.hh"

namespace specrt
{
namespace verify
{

/** What kind of decision a stack position holds. */
enum class ChoiceKind : uint8_t
{
    /** Which same-tick ready event fires next. */
    Sched,
    /** The fate of one network transmission (deliver/drop/dup). */
    Fault,
};

/** One decision point as observed during a run. */
struct Decision
{
    /** Branch fired (index into the engine's default-order list). */
    size_t taken;
    /** Candidates that were ready (or fault alternatives). */
    size_t degree;
    /** The candidates themselves (Sched points only). */
    std::vector<EventChoice> options;
    ChoiceKind kind = ChoiceKind::Sched;
    /** The transmission decided on (Fault points only). */
    FaultChoicePoint fault = {};
};

/**
 * The ScheduleController of one exploration run: replays a choice
 * prefix, answers 0 (the engine's default order / normal delivery)
 * beyond it, and records every decision point it is asked about.
 * Sched and Fault decisions share one stack, indexed in the order
 * the engine asks.
 */
class ReplayController : public ScheduleController
{
  public:
    explicit ReplayController(std::vector<size_t> prefix_ = {})
        : prefix(std::move(prefix_))
    {}

    size_t pick(const EventChoice *choices, size_t n) override;
    size_t pickFault(const FaultChoicePoint &p, size_t n) override;
    bool exploresFaults() const override { return exploreFaults; }
    void onFire(const EventChoice &fired) override;

    const std::vector<Decision> &decisions() const { return log; }
    size_t numDecisions() const { return log.size(); }

    /**
     * Every event fired during the run, in fire order (recorded only
     * while recordSteps is set). This is the trace DPOR computes
     * happens-before races over.
     */
    const std::vector<EventChoice> &steps() const { return stepLog; }

    /** Offer fault decision points to the network (pickFault). */
    bool exploreFaults = false;
    /** Record the fired-event trace (DPOR mode). */
    bool recordSteps = false;

    /**
     * Expected kind per stack position (from a schedule file).
     * When non-empty, a decision whose kind disagrees sets
     * kindMismatch -- the replayed file does not describe this
     * machine/workload and the witness is not being reproduced.
     */
    std::vector<ChoiceKind> expectKinds;
    bool kindMismatch = false;

    /**
     * Observer fired at each Sched decision (after the pick): the
     * candidate list, its size, and the branch taken. Tests use it
     * to seed schedule-dependent bugs; it must not touch the queue.
     */
    std::function<void(const EventChoice *, size_t, size_t)> onDecision;

    /** Observer fired at each Fault decision (after the pick). */
    std::function<void(const FaultChoicePoint &, size_t, size_t)>
        onFaultDecision;

  private:
    size_t nextTake(size_t n, ChoiceKind kind);

    std::vector<size_t> prefix;
    std::vector<Decision> log;
    std::vector<EventChoice> stepLog;
};

/**
 * RAII: installs @p c as SimContext::current().scheduleController
 * for the scope, so every DsmSystem constructed inside comes up
 * controlled. Restores the previous controller (usually null) on
 * destruction. Scopes nest.
 */
class ScopedScheduleController
{
  public:
    explicit ScopedScheduleController(ScheduleController *c);
    ~ScopedScheduleController();

    ScopedScheduleController(const ScopedScheduleController &) = delete;
    ScopedScheduleController &
    operator=(const ScopedScheduleController &) = delete;

  private:
    ScheduleController *prev;
};

/** What one run of the system under test concluded. */
struct RunVerdict
{
    bool ok = true;
    /** Human-readable failure description ("" when ok). */
    std::string report;
};

/**
 * One complete execution of the system under test. Called once per
 * schedule with the controller already installed in the current
 * SimContext; it must build a FRESH machine each time (constructing
 * a DsmSystem under the context picks the controller up) and check
 * its properties -- invariants in every reachable state, final
 * verdict vs.\ the oracle. Must be pure re-entrant: exploreParallel
 * calls it concurrently from campaign workers.
 */
using RunFn = std::function<RunVerdict()>;

/** How the DFS decides which branches deserve exploration. */
enum class ExploreMode : uint8_t
{
    /** Every branch of every decision point (PR 6 behaviour). */
    Naive,
    /** Dynamic partial-order reduction: only race-demanded branches. */
    Dpor,
};

/** Exploration budgets and pruning. */
struct ExploreOptions
{
    ExploreMode mode = ExploreMode::Naive;
    /** Total schedules to execute; 0 = unlimited (exhaustive). */
    size_t maxRuns = 0;
    /**
     * Branch only at the first maxDepth decision points; deeper
     * points always take the default order. 0 = unlimited.
     */
    size_t maxDepth = 0;
    /** Alternatives tried per decision point; 0 = all. */
    size_t maxBranch = 0;
    /**
     * Promote network fault decisions into choice points: the DFS
     * explores which tolerated message is dropped or duplicated.
     * The RunFn's machine must enable the recovery paths (a nonzero
     * fault.watchdogTimeout), or a dropped request has no retry leg
     * and the run wedges.
     */
    bool exploreFaults = false;
    /**
     * Non-default fault alternatives per schedule (d-bounding).
     * Fault points beyond the budget take normal delivery.
     */
    size_t maxFaults = 1;
    /**
     * Keep exploring after a violation instead of stopping at the
     * first: every distinct failure report is collected into
     * ExploreResult::fingerprints (the first one is still shrunk to
     * a witness). For differential coverage tests.
     */
    bool keepGoing = false;
    /**
     * Commutativity relation. Naive mode uses it for sleep-set
     * style pruning only: when advancing a decision point to a
     * sibling branch whose event is independent of an
     * already-explored sibling's, the subtree is skipped (the
     * explored one covers its interleavings). Null (the default)
     * prunes nothing, which is always sound.
     *
     * Dpor mode derives its dependence relation from this (two
     * events race iff NOT independent, closed under creation
     * edges); null defaults to networkActorIndependence. Supplying
     * a relation is sound only if related events truly commute --
     * firing them in either order reaches the same state -- e.g.\
     * fault-free network deliveries to distinct destination nodes.
     * NOT valid under fault injection or fault exploration (a
     * dropped delivery changes global retry state), so leave it
     * null / rely on nothing commuting when exploreFaults is set.
     */
    std::function<bool(const EventChoice &, const EventChoice &)>
        independent;
    /**
     * Choices locked by a parallel partition: positions below
     * lockedPrefix.size() replay these values and are never
     * incremented. The DFS explores only the subtree below.
     */
    std::vector<size_t> lockedPrefix;
};

/**
 * The distinct-destination heuristic: two Network deliveries bound
 * for different known actor nodes commute in the fault-free
 * protocol (distinct controllers, channel order per (src,dst) pair
 * preserved either way). NOT valid under fault injection (a dropped
 * or duplicated delivery changes global retry state).
 */
bool networkActorIndependence(const EventChoice &a,
                              const EventChoice &b);

/**
 * The dependence predicate DPOR uses under the default relation:
 * two fired events are dependent iff one created the other (a
 * creation edge) or networkActorIndependence does not prove them
 * independent. Exposed for unit tests pinning the relation.
 */
bool dporDependent(const EventChoice &a, const EventChoice &b);

/** What an exploration covered and found. */
struct ExploreResult
{
    /** Schedules fully executed. */
    size_t runs = 0;
    /** Decision points observed, summed over runs. */
    size_t decisions = 0;
    /** Deepest decision stack seen in any run. */
    size_t maxDepthSeen = 0;
    /** Subtrees skipped by independence pruning / fault budget. */
    size_t pruned = 0;
    /** Backtrack branches demanded by DPOR races. */
    size_t races = 0;
    /** Stopped on maxRuns before exhausting the (bounded) tree. */
    bool budgetExhausted = false;

    /** Some schedule failed the property. */
    bool violated = false;
    /** Schedules that failed (1 unless keepGoing). */
    size_t violations = 0;
    /** Distinct failure reports seen (keepGoing collects them all). */
    std::set<std::string> fingerprints;
    /** The first failing choice stack, as found (unshrunk). */
    std::vector<size_t> rawWitness;
    /** The shrunk failing stack (replay it to reproduce). */
    std::vector<size_t> witness;
    /** Kind of each witness position (Sched/Fault). */
    std::vector<ChoiceKind> witnessKinds;
    /** The failing run's report. */
    std::string report;

    std::string summary() const;
};

/**
 * Depth-first enumeration of schedules of @p run under @p opts,
 * shrinking the first violation found (exploration stops at it
 * unless opts.keepGoing).
 */
ExploreResult explore(const RunFn &run, const ExploreOptions &opts = {});

/**
 * Execute @p run once under the schedule @p choices (replay). The
 * verdict is the run's own; the returned controller log is not
 * kept. @p exploreFaults must match the exploration that produced
 * the schedule (fault positions are decision points only when on).
 */
RunVerdict replay(const RunFn &run, const std::vector<size_t> &choices,
                  bool exploreFaults = false);

/**
 * Parallel exploration: expand the choice tree breadth-first to
 * @p partitionDepth levels (each probe run also checks the
 * property), then explore the resulting prefix-locked subtrees as
 * campaign jobs. Results merge deterministically in job-id order;
 * the merged result equals a serial explore() up to the order in
 * which a violation (if several subtrees contain one) is attributed.
 * Probes expand every branch of the partitioned levels, so DPOR
 * backtrack demands that land inside a locked prefix are already
 * covered by sibling jobs.
 */
ExploreResult exploreParallel(const RunFn &run, const ExploreOptions &opts,
                              size_t partitionDepth,
                              const campaign::Options &copts = {});

// --- schedule files ----------------------------------------------------

/** A structured schedule-file parse failure. */
struct ParseError
{
    /** 1-based line of the offending input (0 = whole file). */
    size_t line = 0;
    std::string message;
};

/**
 * A serialized schedule: metadata plus the choice stack.
 *
 * v2 format (serialize always emits v2):
 *
 *     specrt-schedule v2
 *     meta <key> <value...>
 *     choice <n>      # Sched position: fire ready-candidate n
 *     fault <n>       # Fault position: 0 deliver, 1 drop/dup, 2 dup
 *     end <count>     # trailer; count == number of positions
 *
 * Positions appear in decision order; choice and fault lines
 * interleave exactly as the run decided them. The end trailer makes
 * truncation detectable. v1 files (no trailer, choice lines only)
 * still parse.
 */
struct ScheduleFile
{
    /** Free-form metadata (config fingerprint, workload, report). */
    std::map<std::string, std::string> meta;
    std::vector<size_t> choices;
    /**
     * Kind of each position, parallel to choices. Empty means all
     * Sched (a v1 file).
     */
    std::vector<ChoiceKind> kinds;

    /** True if any position is a fault decision. */
    bool hasFaults() const;

    /** Serialize to the textual v2 schedule format. */
    std::string serialize() const;

    /**
     * Parse into @p out. On failure returns false and fills @p err
     * with the offending line and a description; @p out is
     * unspecified. Never silently truncates: version skew, unknown
     * keywords, malformed numbers, and a missing/inconsistent v2
     * trailer are all errors.
     */
    static bool tryParse(const std::string &text, ScheduleFile &out,
                         ParseError &err);
    /** Parse; throws FatalError on malformed input. */
    static ScheduleFile parse(const std::string &text);

    /** Write to @p path (panics on I/O failure). */
    void save(const std::string &path) const;
    /** Read from @p path (panics on I/O or parse failure). */
    static ScheduleFile load(const std::string &path);
    /**
     * Read from @p path; parse failures fill @p err and return
     * false (I/O failures still panic).
     */
    static bool tryLoad(const std::string &path, ScheduleFile &out,
                        ParseError &err);
};

} // namespace verify
} // namespace specrt

#endif // SPECRT_VERIFY_EXPLORER_HH
