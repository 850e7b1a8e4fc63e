/**
 * @file
 * The one run differ, and the perf gate.
 *
 *     report_diff [--tolerance F] <a.json> <b.json>
 *     report_diff [--tolerance F] <baseline.json> <results.json>
 *     report_diff --rebase <baseline.json> <results.json>
 *
 * Two reports (bench --report-out, or two bench records): print the
 * regression-highlighting Markdown diff (obs::diff). A JSON array
 * first (bench/baseline.json) and a results array (BENCH_results.json
 * layout): print the perf gate's table (obs::gate); CI passes
 * --tolerance 0.75. --rebase rewrites the baseline from the results
 * instead (obs::rebaseline). F is a fraction in [0, 1): the relative
 * change a diff calls equal (default 0.02), or the drop in ticks/s
 * the gate allows.
 *
 * Exit status: 0 = no regression or gate failure, 1 = at least one,
 * 2 = usage or I/O error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/event_log.hh"
#include "obs/report.hh"

using namespace specrt;

namespace
{

/** Short label for the table header: basename without ".json". */
std::string
labelOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    if (base.size() > 5 && base.compare(base.size() - 5, 5, ".json") == 0)
        base.resize(base.size() - 5);
    return base.empty() ? path : base;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: report_diff [--tolerance F] <a.json> <b.json>\n"
                 "       report_diff [--tolerance F] <baseline.json> "
                 "<results.json>\n"
                 "       report_diff --rebase <baseline.json> "
                 "<results.json>\n");
    return 2;
}

bool
load(const std::string &path, obs::RunReport &out)
{
    std::string err;
    if (obs::loadReport(path, out, err))
        return true;
    std::fprintf(stderr, "report_diff: %s: %s\n", path.c_str(),
                 err.c_str());
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::DiffOptions opt;
    bool rebase = false;
    std::string pathA, pathB;
    for (int i = 1; i < argc; ++i) {
        const char *tol = nullptr;
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc)
            tol = argv[++i];
        else if (std::strncmp(argv[i], "--tolerance=", 12) == 0)
            tol = argv[i] + 12;

        if (tol) {
            // The whole value, a fraction in [0, 1): a typo must not
            // switch the gate off.
            char *end = nullptr;
            opt.tolerance = std::strtod(tol, &end);
            if (end == tol || *end != '\0' ||
                !(opt.tolerance >= 0 && opt.tolerance < 1)) {
                std::fprintf(stderr,
                             "report_diff: bad --tolerance '%s' (want a "
                             "fraction in [0, 1))\n",
                             tol);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--rebase") == 0) {
            rebase = true;
        } else if (argv[i][0] == '-') {
            return usage();
        } else if (pathA.empty()) {
            pathA = argv[i];
        } else if (pathB.empty()) {
            pathB = argv[i];
        } else {
            return usage();
        }
    }
    if (pathA.empty() || pathB.empty())
        return usage();

    obs::RunReport a, b;
    if ((!rebase && !load(pathA, a)) || !load(pathB, b))
        return 2;
    std::vector<obs::RunReport> baseline, records;
    bool gating = rebase || obs::splitArray(a, baseline);
    if (gating &&
        !(obs::splitArray(b, records) &&
          std::any_of(records.begin(), records.end(),
                      [](const obs::RunReport &r) {
                          return r.strings.count("name") != 0;
                      }))) {
        std::fprintf(stderr, "report_diff: %s: no bench records\n",
                     pathB.c_str());
        return 2;
    }

    if (rebase) {
        if (!obs::writeFile(pathA, obs::rebaseline(records))) {
            std::fprintf(stderr, "report_diff: cannot write %s\n",
                         pathA.c_str());
            return 2;
        }
        std::printf("baseline rewritten: %s\n", pathA.c_str());
        return 0;
    }
    std::string md;
    size_t bad = 0;
    if (gating) {
        obs::GateResult g = obs::gate(baseline, records, opt.tolerance);
        md = g.markdown;
        bad = g.failures;
    } else {
        obs::DiffResult d = obs::diff(a, b, opt);
        md = obs::diffMarkdown(d, labelOf(pathA), labelOf(pathB));
        bad = d.regressions;
    }
    std::fwrite(md.data(), 1, md.size(), stdout);
    return bad ? 1 : 0;
}
