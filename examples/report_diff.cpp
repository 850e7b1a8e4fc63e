/**
 * @file
 * Compare two report.json files (bench --report-out) and print the
 * regression-highlighting Markdown table.
 *
 *     report_diff [--tolerance F] <a.json> <b.json>
 *
 * Exit status: 0 = no regressions, 1 = at least one regression,
 * 2 = usage or I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

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
                 "usage: report_diff [--tolerance F] <a.json> <b.json>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    obs::DiffOptions opt;
    std::string pathA, pathB;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
            opt.tolerance = std::strtod(argv[++i], nullptr);
        } else if (std::strncmp(argv[i], "--tolerance=", 12) == 0) {
            opt.tolerance = std::strtod(argv[i] + 12, nullptr);
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
    std::string err;
    if (!obs::loadReport(pathA, a, err)) {
        std::fprintf(stderr, "report_diff: %s: %s\n", pathA.c_str(),
                     err.c_str());
        return 2;
    }
    if (!obs::loadReport(pathB, b, err)) {
        std::fprintf(stderr, "report_diff: %s: %s\n", pathB.c_str(),
                     err.c_str());
        return 2;
    }

    obs::DiffResult d = obs::diff(a, b, opt);
    std::string md = obs::diffMarkdown(d, labelOf(pathA), labelOf(pathB));
    std::fwrite(md.data(), 1, md.size(), stdout);
    return d.regressions ? 1 : 0;
}
