#include "spec/invariants.hh"

#include <cstdio>
#include <cstring>
#include <vector>

#include "sim/logging.hh"
#include "spec/spec_unit.hh"

namespace specrt
{

namespace
{

std::string
hexAddr(Addr a)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%#llx", (unsigned long long)a);
    return buf;
}

} // namespace

InvariantChecker::InvariantChecker(DsmSystem &dsm_)
    : StatGroup("invariants"),
      violations(this, "invariant_violations",
                 "protocol invariant violations detected"),
      checks(this, "invariant_checks", "full invariant passes run"),
      dsm(dsm_)
{
}

void
InvariantChecker::report(const char *invariant, std::string detail)
{
    ++violations;
    ++foundThisCall;
    ProtocolViolation v{invariant, std::move(detail)};
    if (handler) {
        handler(v);
        return;
    }
    warn("protocol invariant %s violated: %s", v.invariant.c_str(),
         v.detail.c_str());
}

void
InvariantChecker::newRun()
{
    npBase.clear();
    psBase.clear();
    ppBase.clear();
}

size_t
InvariantChecker::checkAll(Granularity g)
{
    ++checks;
    size_t n = 0;
    n += checkCoherence(g);
    n += checkSpecBits(g);
    if (g == Granularity::Quiesce)
        n += checkQuiesced();
    return n;
}

bool
InvariantChecker::lineInFlight(Addr line) const
{
    NodeId home = dsm.memory().homeOf(line);
    if (dsm.dirCtrl(home).lineBusy(line))
        return true;
    const int procs = dsm.numProcs();
    for (NodeId n = 0; n < procs; ++n) {
        if (dsm.cacheCtrl(n).lineBusy(line))
            return true;
    }
    return false;
}

size_t
InvariantChecker::checkCoherence(Granularity g)
{
    foundThisCall = 0;
    const int procs = dsm.numProcs();
    const bool midFlight = g == Granularity::Delivery;

    struct Holder
    {
        NodeId node;
        const L2Set *line;
    };
    std::unordered_map<Addr, std::vector<Holder>> holders;
    for (NodeId n = 0; n < procs; ++n) {
        dsm.cacheCtrl(n).cacheArray().forEachLine(
            [&](const L2Set &cl) {
                holders[cl.addr].push_back({n, &cl});
            });
    }

    const uint32_t bytes = dsm.config().l2.lineBytes;

    std::vector<uint8_t> memData;
    for (const auto &[addr, hs] : holders) {
        if (!dsm.memory().find(addr)) {
            report("line-mapped",
                   "cached line " + hexAddr(addr) + " is unmapped");
            continue;
        }
        if (midFlight && lineInFlight(addr))
            continue;
        NodeId home = dsm.memory().homeOf(addr);
        const DirEntry *e = dsm.dirCtrl(home).directory().find(addr);
        DirState ds = e ? e->state : DirState::Uncached;

        for (const Holder &h : hs) {
            std::string where = "line " + hexAddr(addr) + " at node " +
                                std::to_string(h.node);
            if (h.line->state == LineState::Dirty) {
                if (ds != DirState::Dirty || e->owner != h.node)
                    report("dirty-owner",
                           where + " is Dirty but home " +
                               std::to_string(home) + " has it " +
                               dirStateName(ds));
                if (hs.size() != 1)
                    report("dirty-single-owner",
                           where + " is Dirty but " +
                               std::to_string(hs.size()) +
                               " nodes cache the line");
            } else {
                if (ds != DirState::Shared) {
                    report("shared-dir-state",
                           where + " is Shared but home " +
                               std::to_string(home) + " has it " +
                               dirStateName(ds));
                } else if (!e->isSharer(h.node)) {
                    report("shared-presence",
                           where + " is Shared but its presence bit "
                                   "is clear at home");
                } else {
                    memData.resize(bytes);
                    dsm.memory().readLine(addr, memData.data(), bytes);
                    if (std::memcmp(memData.data(), h.line->data,
                                    bytes) != 0)
                        report("shared-data",
                               where + " (clean) differs from memory");
                }
            }
        }
    }

    for (NodeId home = 0; home < procs; ++home) {
        dsm.dirCtrl(home).directory().forEach([&](Addr addr,
                                                  const DirEntry &e) {
            if (midFlight && lineInFlight(addr))
                return;
            std::string where =
                "dir entry " + hexAddr(addr) + " at home " +
                std::to_string(home);
            if (e.state == DirState::Dirty) {
                if (e.owner < 0 || e.owner >= procs) {
                    report("dirty-owner-valid",
                           where + " is Dirty with bad owner " +
                               std::to_string(e.owner));
                    return;
                }
                if (e.sharers != 0)
                    report("dirty-no-sharers",
                           where + " is Dirty with presence bits set");
                const L2Set *cl = dsm.cacheCtrl(e.owner)
                                      .cacheArray()
                                      .findLine(addr);
                if (!cl || cl->state != LineState::Dirty)
                    report("dirty-owner-caches",
                           where + " names owner " +
                               std::to_string(e.owner) +
                               " which does not hold the line Dirty");
            } else if (e.state == DirState::Shared) {
                if (procs < 64 &&
                    (e.sharers >> procs) != 0)
                    report("sharer-range",
                           where + " has presence bits beyond the "
                                   "machine size");
            }
        });
    }

    return foundThisCall;
}

size_t
InvariantChecker::checkSpecBits(Granularity g)
{
    foundThisCall = 0;
    if (!spec)
        return 0;
    const int procs = dsm.numProcs();
    const bool failed = spec->failure().failed;

    // Non-privatization bits at each home (authoritative copy).
    for (NodeId home = 0; home < procs; ++home) {
        spec->dirUnit(home).forEachNp([&](Addr elem,
                                          const NPDirBits &d) {
            std::string where = "NP bits of elem " + hexAddr(elem);
            if (d.noShr && d.rOnly && !failed)
                report("np-noshr-ronly",
                       where + " have NoShr and ROnly both set but "
                               "no failure is latched");
            if (d.noShr && d.first == invalidNode)
                report("np-noshr-first",
                       where + " have NoShr set with First empty");

            auto it = npBase.find(elem);
            if (it != npBase.end()) {
                const NpBase &b = it->second;
                if (b.first != invalidNode && d.first != b.first)
                    report("np-first-stable",
                           where + " changed First from " +
                               std::to_string(b.first) + " to " +
                               std::to_string(d.first));
                if ((b.noShr && !d.noShr) || (b.rOnly && !d.rOnly))
                    report("np-bits-monotonic",
                           where + " cleared NoShr or ROnly");
            }
            npBase[elem] = {d.first, d.noShr, d.rOnly};
        });
    }

    // Cache tags vs. the home's bits. Dirty lines are skipped: their
    // updates are deliberately deferred until the line leaves the
    // cache, so the home legitimately lags. Between deliveries even
    // Shared tags can lag (an in-flight fill carries bits the home
    // already merged), so this cross-check only holds at quiesce.
    for (NodeId n = 0; g == Granularity::Quiesce && n < procs; ++n) {
        NodeCache &cache = dsm.cacheCtrl(n).cacheArray();
        spec->cacheUnit(n).forEachNpLine([&](Addr line,
                                             const NPTagBits *bits,
                                             uint32_t elems) {
            const L2Set *cl = cache.findLine(line);
            if (!cl || cl->state != LineState::Shared)
                return;
            const Region *r = dsm.memory().find(line);
            if (!r)
                return;
            NodeId home = dsm.memory().homeOf(line);
            for (uint32_t i = 0; i < elems; ++i) {
                Addr elem = line + i * r->elemBytes;
                const NPDirBits *d = spec->dirUnit(home).findNp(elem);
                const NPTagBits &t = bits[i];
                std::string where = "node " + std::to_string(n) +
                                    " tag of elem " + hexAddr(elem);
                if (t.first == TagFirst::Own &&
                    (!d || d->first != n))
                    report("np-tag-first",
                           where + " says First=OWN but home " +
                               "disagrees");
                if (t.first == TagFirst::Other &&
                    (!d || d->first == invalidNode || d->first == n))
                    report("np-tag-first",
                           where + " says First=OTHER but home " +
                               "disagrees");
                if (t.rOnly && (!d || !d->rOnly))
                    report("np-tag-ronly",
                           where + " has ROnly unknown to the home");
                if (t.noShr && (!d || !d->noShr))
                    report("np-tag-noshr",
                           where + " has NoShr unknown to the home");
            }
        });
    }

    // Privatization time stamps (shared-array home side).
    for (NodeId home = 0; home < procs; ++home) {
        spec->dirUnit(home).forEachShared(
            [&](Addr elem, const PrivSharedDirBits &d) {
            std::string where = "priv stamps of elem " + hexAddr(elem);
            if (d.maxR1st > d.minW && !failed)
                report("priv-maxr1st-minw",
                       where + ": MaxR1st " +
                           std::to_string(d.maxR1st) + " > MinW " +
                           std::to_string(d.minW) +
                           " but no failure is latched");
            auto it = psBase.find(elem);
            if (it != psBase.end()) {
                if (d.maxR1st < it->second.maxR1st)
                    report("priv-maxr1st-monotonic",
                           where + ": MaxR1st decreased");
                if (d.minW > it->second.minW)
                    report("priv-minw-monotonic",
                           where + ": MinW increased");
            }
            psBase[elem] = {d.maxR1st, d.minW};
        });
        spec->dirUnit(home).forEachPriv(
            [&](Addr elem, const PrivPrivDirBits &d) {
            auto it = ppBase.find(elem);
            if (it != ppBase.end() &&
                (d.pMaxR1st < it->second.pMaxR1st ||
                 d.pMaxW < it->second.pMaxW))
                report("priv-pdir-monotonic",
                       "private stamps of elem " + hexAddr(elem) +
                           " moved backwards");
            ppBase[elem] = {d.pMaxR1st, d.pMaxW};
        });
    }

    return foundThisCall;
}

size_t
InvariantChecker::checkQuiesced()
{
    foundThisCall = 0;
    const int procs = dsm.numProcs();

    for (NodeId n = 0; n < procs; ++n) {
        DirCtrl &dc = dsm.dirCtrl(n);
        if (dc.numActiveTxns() != 0)
            report("quiesce-txns",
                   "dir " + std::to_string(n) + " still has " +
                       std::to_string(dc.numActiveTxns()) +
                       " active transactions");
        if (dc.numQueuedReqs() != 0)
            report("quiesce-queue",
                   "dir " + std::to_string(n) + " still has " +
                       std::to_string(dc.numQueuedReqs()) +
                       " queued requests");
        if (!dsm.cacheCtrl(n).quiescent())
            report("quiesce-cache",
                   "cache " + std::to_string(n) +
                       " has transactions in flight");
        if (spec && spec->dirUnit(n).numPendingReadIns() != 0)
            report("quiesce-readins",
                   "dir " + std::to_string(n) +
                       " has read-ins in flight");
    }
    if (dsm.network().numPendingRetransmits() != 0)
        report("quiesce-retransmits",
               std::to_string(dsm.network().numPendingRetransmits()) +
                   " signal retransmissions still pending");

    return foundThisCall;
}

} // namespace specrt
