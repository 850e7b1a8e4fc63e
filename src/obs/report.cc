#include "obs/report.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/event_log.hh"
#include "obs/sinks.hh"

namespace specrt
{
namespace obs
{

namespace
{

/** Count retained event lines by kind ({"ev":"<kind>"...}). */
std::map<std::string, uint64_t>
eventCounts(const EventLog &ev)
{
    std::map<std::string, uint64_t> counts;
    static const char prefix[] = "{\"ev\":\"";
    constexpr size_t plen = sizeof(prefix) - 1;
    for (size_t i = 0; i < ev.size(); ++i) {
        const std::string &line = ev.at(i);
        if (line.compare(0, plen, prefix) != 0)
            continue;
        size_t q = line.find('"', plen);
        if (q == std::string::npos)
            continue;
        ++counts[line.substr(plen, q - plen)];
    }
    return counts;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Display-friendly number for the Markdown table (6 sig digits). */
std::string
tableNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

void
appendPairs(std::ostringstream &os,
            const std::vector<std::pair<std::string, double>> &pairs)
{
    for (size_t i = 0; i < pairs.size(); ++i) {
        os << (i ? ", " : "") << "\"" << jsonEscape(pairs[i].first)
           << "\": " << jsonNumber(pairs[i].second);
    }
}

} // namespace

void
RunTotals::metric(const std::string &key, double value)
{
    for (auto &kv : metrics) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    metrics.emplace_back(key, value);
}

void
RunTotals::merge(const RunTotals &shard)
{
    simTicks += shard.simTicks;
    eventsFired += shard.eventsFired;
    runs += shard.runs;
    infraFailedRuns += shard.infraFailedRuns;
    for (const auto &kv : shard.metrics)
        metric(kv.first, kv.second);
    if (!shard.stats.empty())
        stats = shard.stats;
}

std::string
renderReport(const ReportInputs &in)
{
    static const RunTotals none;
    const RunTotals &t = in.totals ? *in.totals : none;
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": 1,\n"
       << "  \"name\": \"" << jsonEscape(in.name) << "\",\n"
       << "  \"git_sha\": \"" << jsonEscape(in.gitSha) << "\",\n"
       << "  \"config_fingerprint\": \""
       << jsonEscape(in.configFingerprint) << "\",\n"
       << "  \"base_seed\": " << in.baseSeed << ",\n"
       << "  \"sim_ticks\": " << t.simTicks << ",\n"
       << "  \"events_fired\": " << t.eventsFired << ",\n"
       << "  \"runs\": " << t.runs << ",\n"
       << "  \"infra_failed_runs\": " << t.infraFailedRuns << ",\n";

    os << "  \"metrics\": {";
    appendPairs(os, t.metrics);
    os << "},\n";

    os << "  \"stats\": {";
    appendPairs(os, t.stats);
    os << "},\n";

    static const stall::CostBreakdown noCost;
    const critpath::Recorder *cp = in.sinks ? &in.sinks->critpath : nullptr;
    const stall::CostBreakdown &c = cp ? cp->totals() : noCost;
    os << "  \"cost\": {\n"
       << "    \"valid\": " << (c.valid ? "true" : "false") << ",\n"
       << "    \"num_procs\": " << c.numProcs << ",\n"
       << "    \"per_node_ticks\": " << jsonNumber(c.perNodeTicks)
       << ",\n"
       << "    \"node_ticks\": " << jsonNumber(c.nodeTicks) << ",\n"
       << "    \"busy\": " << jsonNumber(c.busy) << ",\n"
       << "    \"stalls\": {";
    for (size_t i = 0; i < stall::numCauses; ++i) {
        os << (i ? ", " : "") << "\""
           << stall::causeName(static_cast<stall::Cause>(i))
           << "\": " << jsonNumber(c.stalls[i]);
    }
    os << "},\n"
       << "    \"dominant\": \""
       << (c.valid ? stall::causeName(c.dominantCause()) : "")
       << "\",\n"
       << "    \"dominant_share\": "
       << jsonNumber(c.valid ? c.dominantShare() : 0.0) << "\n"
       << "  },\n";

    os << "  \"critpath\": {\n"
       << "    \"runs\": " << (cp ? cp->numRuns() : 0) << ",\n"
       << "    \"txns\": " << (cp ? cp->numTxns() : 0) << ",\n"
       << "    \"summary\": \""
       << jsonEscape(cp ? cp->summaryLine() : std::string())
       << "\"\n  },\n";

    const timeline::Timeline *tl = in.sinks ? &in.sinks->timeline : nullptr;
    os << "  \"timeline\": {\n"
       << "    \"samples\": " << (tl ? tl->numSamples() : 0) << ",\n"
       << "    \"series\": " << (tl ? tl->numSeries() : 0) << ",\n"
       << "    \"hot\": \""
       << jsonEscape(tl ? tl->hotSummary() : std::string())
       << "\"\n  },\n";

    const EventLog *ev = in.sinks ? &in.sinks->events : nullptr;
    os << "  \"events\": {\n"
       << "    \"recorded\": " << (ev ? ev->recorded() : 0) << ",\n"
       << "    \"dropped\": " << (ev ? ev->dropped() : 0) << ",\n"
       << "    \"counts\": {";
    if (ev) {
        bool first = true;
        for (const auto &[kind, n] : eventCounts(*ev)) {
            os << (first ? "" : ", ") << "\"" << jsonEscape(kind)
               << "\": " << n;
            first = false;
        }
    }
    os << "},\n"
       << "    \"aborts\": [";
    // The newest abort lines verbatim: each already is a JSON
    // object, so they embed directly.
    if (ev) {
        constexpr size_t maxAborts = 8;
        std::vector<const std::string *> aborts;
        for (size_t i = 0; i < ev->size(); ++i) {
            const std::string &line = ev->at(i);
            if (line.rfind("{\"ev\":\"abort\"", 0) == 0 ||
                line.rfind("{\"ev\":\"sw_abort\"", 0) == 0)
                aborts.push_back(&line);
        }
        size_t from =
            aborts.size() > maxAborts ? aborts.size() - maxAborts : 0;
        for (size_t i = from; i < aborts.size(); ++i)
            os << (i == from ? "" : ", ") << *aborts[i];
    }
    os << "]\n  }";
    if (!in.host.empty()) {
        os << ",\n  \"host\": {";
        appendPairs(os, in.host);
        os << "}";
    }
    os << "\n}\n";
    return os.str();
}

// --- parsing ----------------------------------------------------------

namespace
{

/**
 * Minimal recursive-descent JSON reader that flattens values into
 * RunReport's dotted-key maps. It validates only as much structure as
 * the differ needs; tests/support/json_checker.hh stays the
 * strict-syntax oracle in tests.
 */
struct Parser
{
    const char *p;
    const char *end;
    std::string err;

    bool
    fail(const std::string &what)
    {
        if (err.empty())
            err = what;
        return false;
    }

    void
    skipWs()
    {
        while (p < end && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (p >= end || *p != c)
            return fail(std::string("expected '") + c + "'");
        ++p;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        skipWs();
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return fail("bad escape");
                switch (*p) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u':
                    // Reports only compare strings for equality, so
                    // the escape can stay verbatim.
                    if (end - p < 5)
                        return fail("bad \\u escape");
                    out += "\\u";
                    out.append(p + 1, 4);
                    p += 4;
                    break;
                  default: return fail("bad escape");
                }
                ++p;
            } else {
                out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p;
        return true;
    }

    bool
    parseValue(const std::string &path, RunReport &out)
    {
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        char c = *p;
        if (c == '{')
            return parseObject(path, out);
        if (c == '[')
            return parseArray(path, out);
        if (c == '"') {
            std::string s;
            if (!parseString(s))
                return false;
            out.strings[path] = s;
            return true;
        }
        if (end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
            p += 4;
            out.numbers[path] = 1;
            return true;
        }
        if (end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
            p += 5;
            out.numbers[path] = 0;
            return true;
        }
        if (end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
            p += 4;
            return true; // nulls are skipped
        }
        char *numEnd = nullptr;
        double v = std::strtod(p, &numEnd);
        if (numEnd == p)
            return fail(
                "bad value at '" +
                std::string(p, std::min<size_t>(end - p, 16)) + "'");
        p = numEnd;
        out.numbers[path] = v;
        return true;
    }

    bool
    parseObject(const std::string &path, RunReport &out)
    {
        if (!expect('{'))
            return false;
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return true;
        }
        for (;;) {
            std::string key;
            if (!parseString(key))
                return false;
            if (!expect(':'))
                return false;
            if (!parseValue(path.empty() ? key : path + "." + key,
                            out))
                return false;
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            return expect('}');
        }
    }

    bool
    parseArray(const std::string &path, RunReport &out)
    {
        if (!expect('['))
            return false;
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return true;
        }
        for (size_t i = 0;; ++i) {
            if (!parseValue(path + "[" + std::to_string(i) + "]",
                            out))
                return false;
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            return expect(']');
        }
    }
};

} // namespace

bool
parseReport(const std::string &json, RunReport &out, std::string &err)
{
    out.numbers.clear();
    out.strings.clear();
    Parser parser{json.data(), json.data() + json.size(), {}};
    if (!parser.parseValue("", out)) {
        err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        err = "trailing content after JSON value";
        return false;
    }
    return true;
}

bool
loadReport(const std::string &path, RunReport &out, std::string &err)
{
    std::ifstream is(path);
    if (!is) {
        err = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseReport(buf.str(), out, err);
}

bool
splitArray(const RunReport &flat, std::vector<RunReport> &out)
{
    // Keyed by index, not resized to it: an index comes from the input.
    std::map<size_t, RunReport> elements;
    auto split = [&](const auto &from, auto field) {
        for (const auto &[key, value] : from) {
            if (key.empty() || key[0] != '[')
                return false;
            char *end = nullptr;
            size_t i = std::strtoul(key.c_str() + 1, &end, 10);
            if (*end != ']')
                return false;
            std::string member = end[1] == '.' ? end + 2 : "";
            (elements[i].*field)[member] = value;
        }
        return true;
    };
    if (!split(flat.numbers, &RunReport::numbers) ||
        !split(flat.strings, &RunReport::strings))
        return false;
    out.clear();
    for (auto &kv : elements)
        out.push_back(std::move(kv.second));
    return true;
}

// --- diffing ----------------------------------------------------------

int
keyDirection(const std::string &key)
{
    auto contains = [&](const char *s) {
        return key.find(s) != std::string::npos;
    };

    // "speedup" anywhere, not just as a suffix: the benches name
    // their headline metrics hw_speedup_mean_16p and the like.
    if (contains("speedup") || endsWith(key, "ticks_per_sec") ||
        endsWith(key, "events_per_sec"))
        return +1;
    if (key.rfind("cost.stalls.", 0) == 0)
        return -1;
    if (key.rfind("events.counts.", 0) == 0) {
        // More conflict/fault activity is worse; lifecycle counts
        // (run_begin, commit, ...) are workload-shaped, neutral.
        std::string kind = key.substr(std::strlen("events.counts."));
        if (kind == "abort" || kind == "sw_abort" ||
            kind == "fault" || kind == "degrade")
            return -1;
        return 0;
    }
    if (contains("violation") || contains("abort") ||
        contains("lost") || contains("retr") ||
        contains("infra_failed") || contains("failures") ||
        contains("mem_"))
        return -1;
    return 0;
}

DiffResult
diff(const RunReport &a, const RunReport &b, const DiffOptions &opt)
{
    DiffResult res;
    // "schema" carries no run information; the key set itself is the
    // schema check.
    auto skipped = [](const std::string &key) {
        return key == "schema";
    };

    std::set<std::string> keys;
    for (const auto &kv : a.numbers)
        keys.insert(kv.first);
    for (const auto &kv : b.numbers)
        keys.insert(kv.first);
    for (const auto &kv : a.strings)
        keys.insert(kv.first);
    for (const auto &kv : b.strings)
        keys.insert(kv.first);

    for (const std::string &key : keys) {
        if (skipped(key))
            continue;
        auto na = a.numbers.find(key);
        auto nb = b.numbers.find(key);
        auto sa = a.strings.find(key);
        auto sb = b.strings.find(key);
        bool inA = na != a.numbers.end() || sa != a.strings.end();
        bool inB = nb != b.numbers.end() || sb != b.strings.end();

        DiffRow row;
        row.key = key;
        if (na != a.numbers.end())
            row.a = na->second;
        if (nb != b.numbers.end())
            row.b = nb->second;
        if (sa != a.strings.end())
            row.sa = sa->second;
        if (sb != b.strings.end())
            row.sb = sb->second;

        if (!inA || !inB) {
            row.kind = inB ? DiffKind::Added : DiffKind::Removed;
            row.numeric = inB ? nb != b.numbers.end()
                              : na != a.numbers.end();
            res.rows.push_back(std::move(row));
            continue;
        }

        ++res.compared;
        if (na != a.numbers.end() && nb != b.numbers.end()) {
            double va = na->second, vb = nb->second;
            if (va == vb)
                continue;
            double denom = std::max(std::abs(va), std::abs(vb));
            if (denom > 0 &&
                std::abs(vb - va) / denom <= opt.tolerance)
                continue;
            int dir = keyDirection(key);
            if (dir == 0)
                row.kind = DiffKind::Changed;
            else if ((vb > va) == (dir > 0))
                row.kind = DiffKind::Improved;
            else
                row.kind = DiffKind::Regressed;
        } else if (sa != a.strings.end() && sb != b.strings.end()) {
            if (sa->second == sb->second)
                continue;
            row.numeric = false;
            row.kind = DiffKind::Changed;
        } else {
            // The key changed type between reports: surface it,
            // neutrally, as a string row.
            row.numeric = false;
            if (row.sa.empty())
                row.sa = jsonNumber(row.a);
            if (row.sb.empty())
                row.sb = jsonNumber(row.b);
            row.kind = DiffKind::Changed;
        }
        if (row.kind == DiffKind::Regressed)
            ++res.regressions;
        else if (row.kind == DiffKind::Improved)
            ++res.improvements;
        res.rows.push_back(std::move(row));
    }
    return res;
}

std::string
diffMarkdown(const DiffResult &d, const std::string &nameA,
             const std::string &nameB)
{
    std::ostringstream os;
    os << "### Run comparison: " << nameA << " vs " << nameB
       << "\n\n";
    if (d.identical()) {
        os << "No differences: " << d.compared
           << " keys compared, all equal.\n";
        return os.str();
    }

    // One table row per key: flatten newlines and pipes, clip long
    // string values.
    auto cell = [](const std::string &s) {
        std::string out;
        for (char c : s)
            out += (c == '\n' || c == '|') ? ' ' : c;
        if (out.size() > 48)
            out = out.substr(0, 45) + "...";
        return out;
    };

    os << "| key | " << nameA << " | " << nameB
       << " | delta | status |\n"
       << "|---|---:|---:|---:|---|\n";
    for (const DiffRow &row : d.rows) {
        bool onlyA = row.kind == DiffKind::Removed;
        bool onlyB = row.kind == DiffKind::Added;
        std::string va, vb, delta = "n/a";
        if (row.numeric) {
            va = onlyB ? "-" : tableNumber(row.a);
            vb = onlyA ? "-" : tableNumber(row.b);
            if (!onlyA && !onlyB && row.a != 0) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%+.1f%%",
                              100.0 * (row.b - row.a) / row.a);
                delta = buf;
            }
        } else {
            auto code = [&](const std::string &s) {
                std::string o = "`";
                o += cell(s);
                o += "`";
                return o;
            };
            va = onlyB ? std::string("-") : code(row.sa);
            vb = onlyA ? std::string("-") : code(row.sb);
        }
        os << "| `" << row.key << "` | " << va << " | " << vb
           << " | " << delta << " | ";
        switch (row.kind) {
          case DiffKind::Regressed:
            os << ":x: regressed";
            break;
          case DiffKind::Improved:
            os << ":white_check_mark: improved";
            break;
          case DiffKind::Changed: os << "changed"; break;
          case DiffKind::Added: os << "added"; break;
          case DiffKind::Removed: os << "removed"; break;
        }
        os << " |\n";
    }
    os << "\n**" << d.compared << " keys compared, " << d.rows.size()
       << " difference(s), " << d.regressions << " regression(s), "
       << d.improvements << " improvement(s).**\n";
    return os.str();
}

// --- perf gate --------------------------------------------------------

namespace
{

/** The last element per value of string @p key, sorted by value. */
std::map<std::string, const RunReport *>
latestBy(const std::vector<RunReport> &elements, const char *key)
{
    std::map<std::string, const RunReport *> latest;
    for (const RunReport &r : elements) {
        auto name = r.strings.find(key);
        if (name != r.strings.end())
            latest[name->second] = &r;
    }
    return latest;
}

double
numberOr(const RunReport &r, const std::string &key, double absent)
{
    auto it = r.numbers.find(key);
    return it == r.numbers.end() ? absent : it->second;
}

} // namespace

GateResult
gate(const std::vector<RunReport> &baseline,
     const std::vector<RunReport> &records, double tolerance)
{
    std::map<std::string, const RunReport *> base =
        latestBy(baseline, "bench");
    GateResult g;
    std::ostringstream os;
    os << "### Perf gate: baseline vs current\n\n"
       << "| status | bench | quantity | current | baseline | bound "
          "| vs baseline |\n"
       << "|---|---|---|---:|---:|---:|---:|\n";
    // One table row; NaN is an absent number.
    auto row = [&](const char *status, const std::string &bench,
                   const std::string &quantity, double current,
                   double ref, double bound) {
        auto num = [](double v) {
            return std::isnan(v) ? std::string("-") : tableNumber(v);
        };
        char delta[32] = "-";
        if (!std::isnan(current) && !std::isnan(ref) && ref != 0)
            std::snprintf(delta, sizeof(delta), "%+.1f%%",
                          100.0 * (current / ref - 1));
        os << "| " << status << " | " << bench << " | " << quantity
           << " | " << num(current) << " | " << num(ref) << " | "
           << num(bound) << " | " << delta << " |\n";
    };
    auto check = [&](bool failed, auto &&...cells) {
        row(failed ? ":x: FAIL" : ":white_check_mark: ok", cells...);
        g.failures += failed;
    };

    std::map<std::string, const RunReport *> latest =
        latestBy(records, "name");
    for (const auto &[name, rec] : latest) {
        double exitCode = numberOr(*rec, "host.exit_code", 0);
        if (exitCode != 0) {
            check(true, name, "exit_code", exitCode, 0, 0);
            continue;
        }
        double rate = numberOr(*rec, "host.ticks_per_sec", 0);
        auto entry = base.find(name);
        if (entry == base.end()) {
            row("skip", name, "ticks_per_sec", rate, NAN, NAN);
            continue;
        }
        const RunReport &b = *entry->second;

        // A zero rate on either side: nothing simulated to compare.
        double ref = numberOr(b, "ticks_per_sec", 0);
        if (rate != 0 && ref != 0) {
            int dir = keyDirection("host.ticks_per_sec");
            double bound = ref * (1 - dir * tolerance);
            check(dir * (rate - bound) < 0, name, "ticks_per_sec", rate,
                  ref, bound);
            ++g.comparisons;
        }
        for (const auto &[key, floor] : b.numbers) {
            if (key.rfind("min_", 0) != 0)
                continue;
            std::string metric = key.substr(4);
            auto cur = rec->numbers.find("metrics." + metric);
            bool missing = cur == rec->numbers.end();
            double value = missing ? NAN : cur->second;
            check(missing || value < floor, name, metric, value, NAN,
                  floor);
            g.comparisons += !missing;
        }
    }
    // A baselined bench that wrote no record (renamed, or run with
    // --no-json) would otherwise leave the gate unnoticed.
    for (const auto &[name, b] : base) {
        if (!latest.count(name))
            check(true, name, "no record", NAN, NAN, NAN);
    }
    os << "\n**" << g.comparisons << " comparisons, " << g.failures
       << " failures.**\n";
    g.markdown = os.str();
    return g;
}

std::string
rebaseline(const std::vector<RunReport> &records)
{
    // Shortest round-trip digits, as a hand-edited baseline wants.
    auto num = [](double v) {
        char buf[64];
        return std::string(buf,
                           std::to_chars(buf, buf + sizeof(buf), v).ptr);
    };
    std::ostringstream os;
    os << "[";
    const char *sep = "\n";
    for (const auto &[name, rec] : latestBy(records, "name")) {
        os << sep << "  {\n    \"bench\": \"" << jsonEscape(name)
           << "\",\n    \"ticks_per_sec\": "
           << num(numberOr(*rec, "host.ticks_per_sec", 0))
           << ",\n    \"events_per_sec\": "
           << num(numberOr(*rec, "host.events_per_sec", 0));
        // Headline speedups become floors at 80 %; timeline-derived
        // metrics are observability output, never performance claims.
        for (const auto &[key, v] : rec->numbers) {
            if (key.rfind("metrics.", 0) != 0)
                continue;
            std::string metric = key.substr(8);
            if (!endsWith(metric, "_speedup") ||
                metric.rfind("timeline_", 0) == 0)
                continue;
            // %.3f rounds the exact binary value to three decimals,
            // ties to even.
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.3f", v * 0.8);
            os << ",\n    \"min_" << jsonEscape(metric)
               << "\": " << num(std::strtod(buf, nullptr));
        }
        os << "\n  }";
        sep = ",\n";
    }
    os << (*sep == ',' ? "\n]\n" : "]\n");
    return os.str();
}

} // namespace obs
} // namespace specrt
