#include "verify/explorer.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "obs/event_log.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace specrt
{
namespace verify
{

size_t
ReplayController::nextTake(size_t n, ChoiceKind kind)
{
    size_t i = log.size();
    size_t take = 0;
    if (i < prefix.size())
        take = std::min(prefix[i], n - 1);
    if (i < expectKinds.size() && expectKinds[i] != kind)
        kindMismatch = true;
    return take;
}

size_t
ReplayController::pick(const EventChoice *choices, size_t n)
{
    size_t take = nextTake(n, ChoiceKind::Sched);
    log.push_back({take, n,
                   std::vector<EventChoice>(choices, choices + n),
                   ChoiceKind::Sched, {}});
    if (onDecision)
        onDecision(choices, n, take);
    return take;
}

size_t
ReplayController::pickFault(const FaultChoicePoint &p, size_t n)
{
    size_t take = nextTake(n, ChoiceKind::Fault);
    log.push_back({take, n, {}, ChoiceKind::Fault, p});
    if (onFaultDecision)
        onFaultDecision(p, n, take);
    return take;
}

void
ReplayController::onFire(const EventChoice &fired)
{
    if (recordSteps)
        stepLog.push_back(fired);
}

ScopedScheduleController::ScopedScheduleController(ScheduleController *c)
    : prev(SimContext::current().scheduleController)
{
    SimContext::current().scheduleController = c;
}

ScopedScheduleController::~ScopedScheduleController()
{
    SimContext::current().scheduleController = prev;
}

bool
networkActorIndependence(const EventChoice &a, const EventChoice &b)
{
    return a.kind == EventKind::Network && b.kind == EventKind::Network &&
           a.actor != unknownActor && b.actor != unknownActor &&
           a.actor != b.actor;
}

bool
dporDependent(const EventChoice &a, const EventChoice &b)
{
    if (a.parent == b.seq || b.parent == a.seq)
        return true; // creation edge: causally ordered regardless
    return !networkActorIndependence(a, b);
}

std::string
ExploreResult::summary() const
{
    std::ostringstream os;
    os << "runs=" << runs << " decisions=" << decisions
       << " max_depth=" << maxDepthSeen << " pruned=" << pruned
       << " races=" << races;
    if (budgetExhausted)
        os << " (budget exhausted)";
    if (violated) {
        os << " VIOLATED";
        if (violations > 1)
            os << " x" << violations << " ("
               << fingerprints.size() << " distinct)";
        os << " witness=[";
        for (size_t i = 0; i < witness.size(); ++i)
            os << (i ? "," : "") << witness[i];
        os << "] " << report;
    }
    return os.str();
}

namespace
{

using Indep =
    std::function<bool(const EventChoice &, const EventChoice &)>;

/** The run-relative dependence: creation edges plus the complement
 *  of the supplied commutativity relation. */
bool
stepsDependent(const EventChoice &a, const EventChoice &b,
               const Indep &indep)
{
    if (a.parent == b.seq || b.parent == a.seq)
        return true;
    return !indep(a, b);
}

/** Execute one schedule, folding coverage counters into @p res. */
RunVerdict
runSchedule(const RunFn &run, const std::vector<size_t> &choices,
            const ExploreOptions &opts, ExploreResult &res,
            std::vector<Decision> *decisions_out,
            std::vector<EventChoice> *steps_out)
{
    ReplayController rc(choices);
    rc.exploreFaults = opts.exploreFaults;
    rc.recordSteps = steps_out != nullptr;
    ScopedScheduleController scope(&rc);
    RunVerdict v = run();
    ++res.runs;
    res.decisions += rc.numDecisions();
    res.maxDepthSeen = std::max(res.maxDepthSeen, rc.numDecisions());
    if (decisions_out)
        *decisions_out = rc.decisions();
    if (steps_out)
        *steps_out = rc.steps();
    return v;
}

std::vector<size_t>
takenOf(const std::vector<Decision> &decs)
{
    std::vector<size_t> taken;
    taken.reserve(decs.size());
    for (const Decision &d : decs)
        taken.push_back(d.taken);
    // Positions beyond the stack default to branch 0, so trailing
    // zeros carry no information.
    while (!taken.empty() && taken.back() == 0)
        taken.pop_back();
    return taken;
}

/**
 * Minimize a failing choice stack: shortest failing prefix first
 * (everything beyond a prefix defaults to 0), then each surviving
 * choice lowered toward the default. Every candidate is re-executed;
 * the runs count toward @p res. The simulator is deterministic given
 * a stack, so the result is a stable 1-minimal witness.
 */
std::vector<size_t>
shrinkWitness(const RunFn &run, std::vector<size_t> cur,
              const ExploreOptions &opts, ExploreResult &res)
{
    auto fails = [&](const std::vector<size_t> &c) {
        return !runSchedule(run, c, opts, res, nullptr, nullptr).ok;
    };

    for (size_t len = 0; len < cur.size(); ++len) {
        std::vector<size_t> t(cur.begin(),
                              cur.begin() + static_cast<long>(len));
        if (fails(t)) {
            cur = std::move(t);
            break;
        }
    }

    for (size_t i = 0; i < cur.size(); ++i) {
        while (cur[i] > 0) {
            std::vector<size_t> t = cur;
            --t[i];
            if (!fails(t))
                break;
            cur = std::move(t);
        }
    }

    while (!cur.empty() && cur.back() == 0)
        cur.pop_back();
    return cur;
}

void
recordViolation(const RunFn &run, const std::vector<Decision> &decs,
                const std::string &report, const ExploreOptions &opts,
                ExploreResult &res)
{
    res.violated = true;
    ++res.violations;
    res.fingerprints.insert(report);
    if (res.violations > 1)
        return; // keepGoing: only the first violation is shrunk
    res.rawWitness = takenOf(decs);
    res.report = report;
    res.witness = shrinkWitness(run, res.rawWitness, opts, res);
    // The witness kinds come from a confirming replay: lowering an
    // earlier choice can change which decisions follow it, so the
    // original failing run's kinds are not authoritative.
    std::vector<Decision> wdecs;
    runSchedule(run, res.witness, opts, res, &wdecs, nullptr);
    res.witnessKinds.clear();
    for (size_t i = 0; i < res.witness.size() && i < wdecs.size(); ++i)
        res.witnessKinds.push_back(wdecs[i].kind);
}

/** One decision point on the current DFS path, with its
 *  exploration state. */
struct PathNode
{
    Decision d;
    /** Effective branch cap after maxBranch/maxDepth. */
    size_t limit = 1;
    /** Branch explored (or pruned), indexed [0, degree). */
    std::vector<char> done;
    /** Branches demanded for exploration, sorted ascending. */
    std::vector<size_t> backtrack;
};

void
addBacktrack(PathNode &nd, size_t b, ExploreResult &res)
{
    auto it = std::lower_bound(nd.backtrack.begin(),
                               nd.backtrack.end(), b);
    if (it != nd.backtrack.end() && *it == b)
        return;
    nd.backtrack.insert(it, b);
    ++res.races;
}

/**
 * DPOR race analysis of one executed trace.
 *
 * Fire ticks are schedule-independent in this engine (callbacks
 * schedule at curTick + delay and a controller only permutes within
 * a tick), so two dependent events at different ticks fire in that
 * tick order in EVERY schedule: only same-tick dependent pairs are
 * reversible races. The trace is therefore scanned per maximal
 * same-tick segment, and any happens-before path between two
 * same-tick events runs entirely inside their segment (every trace
 * position between them is at the same tick), so the intra-segment
 * closure is the real thing, cheaply.
 *
 * For a direct race (i, j) -- dependent, not ordered through an
 * intermediate event, and i not a creation ancestor of j -- the
 * decision point that fired i must also try "j's side". The branch
 * to demand is j itself or its deepest creation ancestor that fired
 * after i: that ancestor's parent fired before i, so the ancestor
 * already existed at the decision point, and (being same-tick) was
 * among its ready candidates. If the candidate cannot be found in
 * the options (a forced move has no decision at all), the race is
 * either unreversible or, conservatively, every branch is demanded.
 */
void
seedBacktracks(const std::vector<EventChoice> &steps,
               std::vector<PathNode> &path, const Indep &indep,
               size_t locked, ExploreResult &res)
{
    std::unordered_map<uint64_t, size_t> decOf; // fired seq -> decision
    for (size_t di = 0; di < path.size(); ++di) {
        const Decision &d = path[di].d;
        if (d.kind == ChoiceKind::Sched)
            decOf[d.options[d.taken].seq] = di;
    }
    std::unordered_map<uint64_t, size_t> stepOf; // seq -> trace index
    for (size_t j = 0; j < steps.size(); ++j)
        stepOf[steps[j].seq] = j;

    auto creationAncestor = [&](size_t i, size_t j) {
        uint64_t p = steps[j].parent;
        while (p != noEventSeq) {
            if (p == steps[i].seq)
                return true;
            auto it = stepOf.find(p);
            if (it == stepOf.end())
                break;
            p = steps[it->second].parent;
        }
        return false;
    };

    auto raceToBacktrack = [&](size_t i, size_t j) {
        auto dit = decOf.find(steps[i].seq);
        if (dit == decOf.end())
            return; // forced move: no alternative existed
        size_t di = dit->second;
        if (di < locked)
            return; // sibling partitions cover the locked levels
        PathNode &nd = path[di];
        if (nd.limit <= 1)
            return; // maxDepth/maxBranch bound this point
        size_t cand = j;
        uint64_t p = steps[j].parent;
        while (p != noEventSeq) {
            auto sit = stepOf.find(p);
            if (sit == stepOf.end() || sit->second <= i)
                break;
            cand = sit->second;
            p = steps[cand].parent;
        }
        const Decision &d = nd.d;
        size_t b = d.degree;
        for (size_t o = 0; o < d.degree; ++o) {
            if (d.options[o].seq == steps[cand].seq) {
                b = o;
                break;
            }
        }
        if (b < nd.limit) {
            addBacktrack(nd, b, res);
        } else if (b == d.degree) {
            // Candidate not among the options: demand everything
            // (conservative, sound).
            for (size_t o = 0; o < nd.limit; ++o)
                addBacktrack(nd, o, res);
        }
        // else: the candidate exists but maxBranch excludes it --
        // bounded exploration drops the demand by design.
    };

    for (size_t s = 0; s < steps.size();) {
        size_t e = s + 1;
        while (e < steps.size() && steps[e].when == steps[s].when)
            ++e;
        size_t m = e - s;
        if (m < 2) {
            s = e;
            continue;
        }
        // Intra-segment happens-before closure as bitset clocks:
        // clk[j] bit i set iff steps[s+i] happens-before steps[s+j].
        size_t words = (m + 63) / 64;
        std::vector<uint64_t> clk(m * words, 0);
        auto test = [&](size_t j, size_t i) {
            return (clk[j * words + i / 64] >> (i % 64)) & 1;
        };
        for (size_t j = 1; j < m; ++j) {
            for (size_t i = 0; i < j; ++i) {
                if (stepsDependent(steps[s + i], steps[s + j], indep)) {
                    for (size_t w = 0; w < words; ++w)
                        clk[j * words + w] |= clk[i * words + w];
                    clk[j * words + i / 64] |= uint64_t(1) << (i % 64);
                }
            }
        }
        for (size_t j = 1; j < m; ++j) {
            for (size_t i = 0; i < j; ++i) {
                if (!stepsDependent(steps[s + i], steps[s + j], indep))
                    continue;
                if (creationAncestor(s + i, s + j))
                    continue;
                bool indirect = false;
                for (size_t k = i + 1; k < j && !indirect; ++k)
                    indirect = test(k, i) && test(j, k);
                if (indirect)
                    continue; // ordered through k: not a direct race
                raceToBacktrack(s + i, s + j);
            }
        }
        s = e;
    }
}

/**
 * Advance @p b past branches that commute with an already-explored
 * sibling (probe expansion in exploreParallel). @return the branch
 * to take, or @p limit when the point is spent.
 *
 * Pruning soundness rests on the relation being a true
 * commutativity; skipping b because it commutes with a sibling j < b
 * assumes the interleavings below b are covered below j (and, when j
 * was itself pruned, transitively below j's coverer).
 */
size_t
nextBranch(const Decision &d, size_t from, size_t limit,
           const Indep &indep, ExploreResult &res)
{
    size_t b = from;
    while (b < limit && indep && d.kind == ChoiceKind::Sched) {
        bool prune = false;
        for (size_t j = 0; j < b && !prune; ++j)
            prune = indep(d.options[j], d.options[b]);
        if (!prune)
            break;
        ++res.pruned;
        ++b;
    }
    return b;
}

} // namespace

ExploreResult
explore(const RunFn &run, const ExploreOptions &opts_in)
{
    ExploreOptions opts = opts_in;
    const bool dpor = opts.mode == ExploreMode::Dpor;
    if (dpor && !opts.independent)
        opts.independent = networkActorIndependence;

    ExploreResult res;
    std::vector<size_t> stack = opts.lockedPrefix;
    const size_t locked = opts.lockedPrefix.size();
    std::vector<PathNode> path;

    auto effLimit = [&](size_t i, size_t degree) {
        size_t limit = degree;
        if (opts.maxBranch)
            limit = std::min(limit, opts.maxBranch);
        if (opts.maxDepth && i >= opts.maxDepth)
            limit = 1;
        return limit;
    };
    auto faultsBefore = [&](size_t i) {
        size_t c = 0;
        for (size_t k = 0; k < i; ++k)
            c += path[k].d.kind == ChoiceKind::Fault &&
                 path[k].d.taken != 0;
        return c;
    };

    while (true) {
        std::vector<Decision> decs;
        std::vector<EventChoice> steps;
        RunVerdict v = runSchedule(run, stack, opts, res, &decs,
                                   dpor ? &steps : nullptr);
        if (!v.ok) {
            recordViolation(run, decs, v.report, opts, res);
            if (!opts.keepGoing)
                return res;
        }

        // Reconcile the path with this run's decisions: replayed
        // positions keep their exploration state (determinism makes
        // their Decision identical); deeper positions are new.
        if (decs.size() < path.size())
            path.resize(decs.size());
        for (size_t i = 0; i < path.size(); ++i) {
            path[i].d.taken = decs[i].taken;
            if (decs[i].taken < path[i].done.size())
                path[i].done[decs[i].taken] = 1;
        }
        for (size_t i = path.size(); i < decs.size(); ++i) {
            PathNode nd;
            nd.d = decs[i];
            nd.limit = effLimit(i, decs[i].degree);
            nd.done.assign(decs[i].degree, 0);
            nd.done[decs[i].taken] = 1;
            if (!dpor || decs[i].kind == ChoiceKind::Fault) {
                // Naive mode explores every branch; fault points get
                // the same treatment in both modes (no commutativity
                // theory applies to fault placement).
                for (size_t b = 0; b < nd.limit; ++b)
                    nd.backtrack.push_back(b);
            } else {
                // DPOR: only the branch actually taken; races demand
                // the rest.
                nd.backtrack.push_back(decs[i].taken);
            }
            path.push_back(std::move(nd));
        }

        if (dpor)
            seedBacktracks(steps, path, opts.independent, locked, res);

        // Depth-first: take the deepest demanded, unexplored branch.
        bool advanced = false;
        for (size_t i = path.size(); i-- > locked;) {
            PathNode &nd = path[i];
            for (size_t bi = 0; bi < nd.backtrack.size(); ++bi) {
                size_t b = nd.backtrack[bi];
                if (b >= nd.done.size() || nd.done[b] ||
                    b >= nd.limit)
                    continue;
                if (nd.d.kind == ChoiceKind::Fault && b != 0 &&
                    faultsBefore(i) >= opts.maxFaults) {
                    // d-bounding: this schedule already spends the
                    // whole fault budget above here.
                    nd.done[b] = 1;
                    ++res.pruned;
                    continue;
                }
                if (nd.d.kind == ChoiceKind::Sched &&
                    opts.independent) {
                    bool prune = false;
                    for (size_t j = 0;
                         j < nd.done.size() && !prune; ++j)
                        prune = j != b && nd.done[j] &&
                                opts.independent(nd.d.options[j],
                                                 nd.d.options[b]);
                    if (prune) {
                        // Sleep set: a commuting sibling's subtree
                        // covers this one's interleavings.
                        nd.done[b] = 1;
                        ++res.pruned;
                        continue;
                    }
                }
                nd.d.taken = b;
                nd.done[b] = 1;
                path.resize(i + 1);
                stack.resize(i + 1);
                for (size_t k = 0; k <= i; ++k)
                    stack[k] = path[k].d.taken;
                advanced = true;
                break;
            }
            if (advanced)
                break;
        }
        if (!advanced)
            return res; // tree (as bounded) exhausted

        if (opts.maxRuns && res.runs >= opts.maxRuns) {
            res.budgetExhausted = true;
            return res;
        }
    }
}

RunVerdict
replay(const RunFn &run, const std::vector<size_t> &choices,
       bool exploreFaults)
{
    ReplayController rc(choices);
    rc.exploreFaults = exploreFaults;
    ScopedScheduleController scope(&rc);
    return run();
}

ExploreResult
exploreParallel(const RunFn &run, const ExploreOptions &opts_in,
                size_t partition_depth, const campaign::Options &copts)
{
    ExploreOptions opts = opts_in;
    if (opts.mode == ExploreMode::Dpor && !opts.independent)
        opts.independent = networkActorIndependence;

    ExploreResult agg;

    // Breadth-first prefix expansion: each probe run discovers the
    // branch degree at its frontier position (and checks the
    // property on the way). Every branch of the partitioned levels
    // is expanded regardless of mode -- a superset of what DPOR
    // would demand, so prefix-locked subtrees lose no coverage.
    std::vector<std::vector<size_t>> frontier = {opts.lockedPrefix};
    for (size_t level = 0; level < partition_depth; ++level) {
        std::vector<std::vector<size_t>> next;
        for (const std::vector<size_t> &p : frontier) {
            std::vector<Decision> decs;
            RunVerdict v =
                runSchedule(run, p, opts, agg, &decs, nullptr);
            if (!v.ok) {
                recordViolation(run, decs, v.report, opts, agg);
                if (!opts.keepGoing)
                    return agg;
            }
            size_t pos = p.size();
            if (decs.size() <= pos)
                continue; // the probe was the subtree's only schedule
            size_t limit = decs[pos].degree;
            if (opts.maxBranch)
                limit = std::min(limit, opts.maxBranch);
            if (opts.maxDepth && pos >= opts.maxDepth)
                limit = 1;
            size_t faults_used = 0;
            for (size_t k = 0; k < pos; ++k)
                faults_used += decs[k].kind == ChoiceKind::Fault &&
                               decs[k].taken != 0;
            for (size_t b = 0; b < limit;
                 b = nextBranch(decs[pos], b + 1, limit,
                                opts.independent, agg)) {
                if (decs[pos].kind == ChoiceKind::Fault && b != 0 &&
                    faults_used >= opts.maxFaults) {
                    ++agg.pruned;
                    continue;
                }
                std::vector<size_t> q = p;
                q.push_back(b);
                next.push_back(std::move(q));
            }
        }
        frontier = std::move(next);
        if (frontier.empty())
            return agg; // every subtree fit inside a probe
    }

    // One campaign job per prefix-locked subtree. Budgets (maxRuns)
    // apply per job. Shards merge in job-id order, so the outcome is
    // independent of worker scheduling.
    std::vector<ExploreResult> shard(frontier.size());
    campaign::JobFn fn = [&](size_t id, SimContext &) {
        ExploreOptions o = opts;
        o.lockedPrefix = frontier[id];
        shard[id] = explore(run, o);
    };
    auto outcomes = campaign::run(frontier.size(), fn, copts);

    for (size_t id = 0; id < frontier.size(); ++id) {
        const ExploreResult &s = shard[id];
        agg.runs += s.runs;
        agg.decisions += s.decisions;
        agg.maxDepthSeen = std::max(agg.maxDepthSeen, s.maxDepthSeen);
        agg.pruned += s.pruned;
        agg.races += s.races;
        agg.budgetExhausted |= s.budgetExhausted;
        agg.violations += s.violations;
        agg.fingerprints.insert(s.fingerprints.begin(),
                                s.fingerprints.end());
        if (!agg.violated && s.violated) {
            agg.violated = true;
            agg.rawWitness = s.rawWitness;
            agg.witness = s.witness;
            agg.witnessKinds = s.witnessKinds;
            agg.report = s.report;
        }
        if (!agg.violated && !outcomes[id].ok) {
            agg.violated = true;
            agg.report = "job " + std::to_string(id) +
                         " died: " + outcomes[id].error;
        }
    }
    return agg;
}

// --- schedule files ----------------------------------------------------

bool
ScheduleFile::hasFaults() const
{
    for (ChoiceKind k : kinds)
        if (k == ChoiceKind::Fault)
            return true;
    return false;
}

std::string
ScheduleFile::serialize() const
{
    std::ostringstream os;
    os << "specrt-schedule v2\n";
    for (const auto &[k, v] : meta) {
        SPECRT_ASSERT(k.find_first_of(" \n") == std::string::npos,
                      "schedule meta key '%s' contains whitespace",
                      k.c_str());
        SPECRT_ASSERT(v.find('\n') == std::string::npos,
                      "schedule meta value for '%s' contains a newline",
                      k.c_str());
        os << "meta " << k << " " << v << "\n";
    }
    for (size_t i = 0; i < choices.size(); ++i) {
        bool fault = i < kinds.size() && kinds[i] == ChoiceKind::Fault;
        os << (fault ? "fault " : "choice ") << choices[i] << "\n";
    }
    os << "end " << choices.size() << "\n";
    return os.str();
}

bool
ScheduleFile::tryParse(const std::string &text, ScheduleFile &out,
                       ParseError &err)
{
    out = ScheduleFile{};
    std::istringstream is(text);
    std::string line;
    if (!std::getline(is, line)) {
        err = {0, "empty input: missing header"};
        return false;
    }
    int version;
    if (line == "specrt-schedule v1") {
        version = 1;
    } else if (line == "specrt-schedule v2") {
        version = 2;
    } else if (line.rfind("specrt-schedule v", 0) == 0) {
        err = {1, "unsupported schedule version '" +
                      line.substr(sizeof("specrt-schedule ") - 1) +
                      "' (this build reads v1 and v2)"};
        return false;
    } else {
        err = {1, "not a specrt schedule file (bad header '" + line +
                      "')"};
        return false;
    }

    // Strict full-token decimal; rejects signs, garbage, overflow.
    auto parseCount = [](const std::string &tok, size_t &val) {
        if (tok.empty())
            return false;
        val = 0;
        for (char c : tok) {
            if (c < '0' || c > '9')
                return false;
            auto d = static_cast<size_t>(c - '0');
            if (val > (SIZE_MAX - d) / 10)
                return false;
            val = val * 10 + d;
        }
        return true;
    };

    bool saw_end = false;
    size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        if (saw_end) {
            err = {lineno, "content after the end trailer"};
            return false;
        }
        std::istringstream ls(line);
        std::string kw;
        ls >> kw;
        if (kw == "meta") {
            std::string key;
            ls >> key;
            std::string value;
            std::getline(ls, value);
            if (!value.empty() && value[0] == ' ')
                value.erase(0, 1);
            if (key.empty()) {
                err = {lineno, "meta without a key"};
                return false;
            }
            out.meta[key] = value;
        } else if (kw == "choice" || kw == "fault" || kw == "end") {
            std::string tok;
            ls >> tok;
            size_t n;
            if (!parseCount(tok, n)) {
                err = {lineno, "malformed count '" + tok +
                                   "' after '" + kw + "'"};
                return false;
            }
            std::string extra;
            if (ls >> extra) {
                err = {lineno,
                       "trailing garbage '" + extra + "'"};
                return false;
            }
            if (kw == "end") {
                if (version < 2) {
                    err = {lineno, "end trailer requires v2"};
                    return false;
                }
                if (n != out.choices.size()) {
                    err = {lineno,
                           "end trailer says " + std::to_string(n) +
                               " positions but " +
                               std::to_string(out.choices.size()) +
                               " were read (truncated or spliced "
                               "file)"};
                    return false;
                }
                saw_end = true;
            } else if (kw == "fault") {
                if (version < 2) {
                    err = {lineno, "fault choices require v2"};
                    return false;
                }
                if (n > 2) {
                    err = {lineno, "fault alternative " +
                                       std::to_string(n) +
                                       " out of range (0..2)"};
                    return false;
                }
                out.choices.push_back(n);
                out.kinds.push_back(ChoiceKind::Fault);
            } else {
                out.choices.push_back(n);
                out.kinds.push_back(ChoiceKind::Sched);
            }
        } else {
            err = {lineno, "unknown keyword '" + kw + "'"};
            return false;
        }
    }
    if (version >= 2 && !saw_end) {
        err = {lineno, "missing end trailer (truncated file)"};
        return false;
    }
    if (version == 1)
        out.kinds.clear(); // canonical "all Sched" form
    return true;
}

ScheduleFile
ScheduleFile::parse(const std::string &text)
{
    ScheduleFile f;
    ParseError err;
    if (!tryParse(text, f, err))
        panic("schedule file line %zu: %s", err.line,
              err.message.c_str());
    return f;
}

void
ScheduleFile::save(const std::string &path) const
{
    if (!obs::writeFile(path, serialize()))
        panic("cannot write schedule file %s", path.c_str());
}

ScheduleFile
ScheduleFile::load(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        panic("cannot read schedule file %s", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    return parse(buf.str());
}

bool
ScheduleFile::tryLoad(const std::string &path, ScheduleFile &out,
                      ParseError &err)
{
    std::ifstream is(path);
    if (!is)
        panic("cannot read schedule file %s", path.c_str());
    std::ostringstream buf;
    buf << is.rdbuf();
    return tryParse(buf.str(), out, err);
}

} // namespace verify
} // namespace specrt
