#include "core/advisor.hh"

#include <map>
#include <set>
#include <sstream>

namespace specrt
{

std::vector<ArrayAdvice>
adviseTests(const std::vector<AccessEvent> &trace,
            const std::vector<ArrayDecl> &decls)
{
    std::vector<ArrayAdvice> out;
    if (decls.empty())
        return out;

    std::vector<std::vector<AccessEvent>> per(decls.size());
    for (const AccessEvent &e : trace) {
        if (e.arrayId >= 0 &&
            e.arrayId < static_cast<int>(decls.size()))
            per[e.arrayId].push_back(e);
    }

    for (size_t d = 0; d < decls.size(); ++d) {
        ArrayAdvice a;
        a.declIdx = static_cast<int>(d);
        a.name = decls[d].name;
        const std::vector<AccessEvent> &sub = per[d];
        a.accessShare =
            trace.empty() ? 0.0
                          : static_cast<double>(sub.size()) /
                                static_cast<double>(trace.size());

        a.readOnly = true;
        for (const AccessEvent &e : sub)
            a.readOnly &= !e.isWrite;

        a.nonPrivOk = Oracle::nonPrivParallel(sub);
        a.privOk = Oracle::privParallel(sub);
        a.reductionOk = !sub.empty() && Oracle::reductionValid(sub);
        a.lrpd = Oracle::lrpd(sub);

        // Schedule-robust non-privatization: every element is
        // read-only or touched by a single iteration (then any
        // scheduling keeps it on one processor).
        {
            std::map<uint64_t, std::set<IterNum>> iters;
            std::map<uint64_t, bool> written;
            for (const AccessEvent &e : sub) {
                iters[e.elem].insert(e.iter);
                written[e.elem] |= e.isWrite;
            }
            a.nonPrivRobust = true;
            for (const auto &[elem, is] : iters) {
                if (written[elem] && is.size() > 1) {
                    a.nonPrivRobust = false;
                    break;
                }
            }
        }

        // Recommendation, cheapest first. Read-only and untraced
        // arrays need no test at all.
        if (sub.empty() || a.readOnly) {
            a.recommended = TestType::None;
        } else if (a.nonPrivRobust) {
            a.recommended = TestType::NonPriv;
        } else if (a.privOk) {
            a.recommended = TestType::Priv;
        } else if (a.reductionOk) {
            a.recommended = TestType::Reduction;
        } else if (a.nonPrivOk) {
            // Passed under the profiled placement only: still usable
            // with block scheduling (the Track case), flagged via
            // nonPrivRobust == false.
            a.recommended = TestType::NonPriv;
        } else {
            // Nothing passes: speculate with the cheap test and fail
            // fast into serial re-execution.
            a.recommended = TestType::NonPriv;
            a.expectSerial = true;
        }
        out.push_back(std::move(a));
    }
    return out;
}

std::string
adviceReport(const std::vector<ArrayAdvice> &advice)
{
    std::ostringstream os;
    for (const ArrayAdvice &a : advice) {
        os << a.name << ": ";
        if (a.recommended == TestType::None) {
            os << (a.readOnly ? "read-only" : "untraced")
               << ", no run-time test needed\n";
            continue;
        }
        switch (a.recommended) {
          case TestType::NonPriv:
            os << "non-privatization test";
            if (!a.nonPrivRobust && !a.expectSerial)
                os << " (placement-sensitive: keep dependent "
                      "iterations in one block)";
            break;
          case TestType::Priv:
            os << "privatization test (read-in/copy-out)";
            break;
          case TestType::Reduction:
            os << "reduction test (tagged accesses)";
            break;
          default:
            break;
        }
        if (a.expectSerial)
            os << " -- expected to FAIL; loop likely serial";
        char buf[64];
        std::snprintf(buf, sizeof(buf), " [%.0f%% of accesses]",
                      100 * a.accessShare);
        os << buf << "\n";
    }
    return os.str();
}

} // namespace specrt
