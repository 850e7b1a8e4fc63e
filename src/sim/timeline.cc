#include "sim/timeline.hh"

#include <algorithm>
#include <sstream>

#include "obs/event_log.hh"
#include "sim/sim_context.hh"

namespace specrt
{
namespace timeline
{

Timeline &
current()
{
    return SimContext::current().sinks.timeline;
}

// --- Timeline ---------------------------------------------------------

void
Timeline::enable(Tick interval)
{
    if (interval == 0)
        interval = defaultIntervalTicks;
    intervalTicks = interval;
    on = true;
    probe::refresh();
}

void
Timeline::disable()
{
    on = false;
    probe::refresh();
}

size_t
Timeline::seriesIndexOf(const std::string &name)
{
    auto it = seriesIndex.find(name);
    if (it != seriesIndex.end())
        return it->second;
    size_t idx = series_.size();
    series_.push_back(Series{name, {}});
    // Zero-backfill so the matrix stays rectangular: a series first
    // seen at row k reads 0 for rows 0..k-1.
    series_[idx].values.assign(ticks_.size(), 0.0);
    seriesIndex.emplace(name, idx);
    return idx;
}

void
Timeline::sample(Tick tick, uint32_t run,
                 const std::vector<std::pair<std::string, double>>
                     &values)
{
    ticks_.push_back(tick);
    runs_.push_back(run);
    // Default every known series to 0 for this row; the provided
    // values then overwrite their columns.
    for (Series &s : series_)
        s.values.push_back(0.0);
    size_t row = ticks_.size() - 1;
    for (const auto &[name, v] : values) {
        size_t idx = seriesIndexOf(name);
        if (series_[idx].values.size() <= row)
            series_[idx].values.resize(row + 1, 0.0);
        series_[idx].values[row] = v;
    }
    // Built-in series: §3.2/§3.3 spec-state transitions since the
    // previous sample. Always emitted, so even a run with no
    // registered groups or gauges produces a non-degenerate matrix.
    size_t sidx = seriesIndexOf("spec.transitions");
    if (series_[sidx].values.size() <= row)
        series_[sidx].values.resize(row + 1, 0.0);
    series_[sidx].values[row] =
        static_cast<double>(pendingSpecTransitions);
    pendingSpecTransitions = 0;
}

namespace
{

inline std::pair<NodeId, Addr>
heatKey(NodeId home, Addr elem)
{
    return {home, elem >> Timeline::bucketShift};
}

} // namespace

void
Timeline::noteDirAccess(NodeId home, Addr elem)
{
    ++heat[heatKey(home, elem)].accesses;
}

void
Timeline::noteDirQueued(NodeId home, Addr elem)
{
    ++heat[heatKey(home, elem)].queued;
}

void
Timeline::noteDirConflict(NodeId home, Addr elem)
{
    ++heat[heatKey(home, elem)].conflicts;
}

void
Timeline::merge(const Timeline &shard)
{
    size_t oldRows = ticks_.size();
    uint32_t runOffset = nextRun;
    ticks_.insert(ticks_.end(), shard.ticks_.begin(),
                  shard.ticks_.end());
    for (uint32_t r : shard.runs_)
        runs_.push_back(r + runOffset);
    nextRun += shard.nextRun;
    // Extend our series over the shard's rows, then fill the shard's
    // columns (creating any we have not seen; both directions are
    // zero-backfilled).
    for (Series &s : series_)
        s.values.resize(ticks_.size(), 0.0);
    for (const Series &ss : shard.series_) {
        size_t idx = seriesIndexOf(ss.name);
        series_[idx].values.resize(ticks_.size(), 0.0);
        std::copy(ss.values.begin(), ss.values.end(),
                  series_[idx].values.begin() + oldRows);
    }
    for (const auto &[key, cell] : shard.heat) {
        HeatCell &dst = heat[key];
        dst.accesses += cell.accesses;
        dst.queued += cell.queued;
        dst.conflicts += cell.conflicts;
    }
    pendingSpecTransitions += shard.pendingSpecTransitions;
}

std::string
Timeline::csv() const
{
    std::ostringstream os;
    os << "tick,run";
    for (const Series &s : series_)
        os << ',' << s.name;
    os << '\n';
    for (size_t row = 0; row < ticks_.size(); ++row) {
        os << ticks_[row] << ',' << runs_[row];
        for (const Series &s : series_)
            os << ',' << obs::jsonNumber(s.values[row]);
        os << '\n';
    }
    // Heatmap footer: comment lines so a plain CSV reader sees only
    // the matrix, in deterministic (home, bucket) order.
    for (const auto &[key, cell] : heat) {
        os << "# heat home=" << key.first << " bucket=0x" << std::hex
           << key.second << std::dec
           << " accesses=" << cell.accesses
           << " queued=" << cell.queued
           << " conflicts=" << cell.conflicts << '\n';
    }
    return os.str();
}

namespace
{

/** Contention order: conflicts, then queueing, then raw traffic. */
bool
hotter(const HeatCell &a, const HeatCell &b)
{
    if (a.conflicts != b.conflicts)
        return a.conflicts > b.conflicts;
    if (a.queued != b.queued)
        return a.queued > b.queued;
    return a.accesses > b.accesses;
}

void
putCell(std::ostream &os, const HeatCell &c)
{
    os << "conflicts=" << c.conflicts << " queued=" << c.queued
       << " accesses=" << c.accesses;
}

} // namespace

std::string
Timeline::hotSummary(size_t topK) const
{
    if (heat.empty())
        return std::string();

    std::map<NodeId, HeatCell> byNode;
    for (const auto &[key, cell] : heat) {
        HeatCell &dst = byNode[key.first];
        dst.accesses += cell.accesses;
        dst.queued += cell.queued;
        dst.conflicts += cell.conflicts;
    }

    // Stable hot order: contention desc, key asc as the tie-break
    // (std::map iteration is key-ascending, stable_sort keeps it).
    std::vector<std::pair<NodeId, HeatCell>> nodes(byNode.begin(),
                                                   byNode.end());
    std::stable_sort(nodes.begin(), nodes.end(),
                     [](const auto &a, const auto &b) {
                         return hotter(a.second, b.second);
                     });
    std::vector<std::pair<std::pair<NodeId, Addr>, HeatCell>> cells(
        heat.begin(), heat.end());
    std::stable_sort(cells.begin(), cells.end(),
                     [](const auto &a, const auto &b) {
                         return hotter(a.second, b.second);
                     });

    std::ostringstream os;
    os << "directory contention summary:\n  hot home nodes:\n";
    for (size_t i = 0; i < nodes.size() && i < topK; ++i) {
        os << "    node " << nodes[i].first << ": ";
        putCell(os, nodes[i].second);
        os << '\n';
    }
    os << "  hot elements (" << (1u << bucketShift)
       << "-word buckets):\n";
    for (size_t i = 0; i < cells.size() && i < topK; ++i) {
        Addr lo = cells[i].first.second << bucketShift;
        Addr hi = lo + (Addr(1) << bucketShift) - 1;
        os << "    node " << cells[i].first.first << " elems 0x"
           << std::hex << lo << "-0x" << hi << std::dec << ": ";
        putCell(os, cells[i].second);
        os << '\n';
    }
    return os.str();
}

// --- RunSampler -------------------------------------------------------

RunSampler::RunSampler(EventQueue &q)
{
    if (!enabled())
        return;
    eq = &q;
    tl = &current();
    runId = tl->beginRun();
    eq->setClockHook(tl->interval(), [this](Tick t) { takeSample(t); });
}

void
RunSampler::addGauge(std::string name, std::function<double()> fn)
{
    if (eq)
        gauges.emplace_back(std::move(name), std::move(fn));
}

void
RunSampler::addStatDelta(const StatGroup &group)
{
    if (!eq)
        return;
    DeltaGroup dg;
    dg.group = &group;
    StatSnapshot snap;
    group.snapshot(snap);
    for (const auto &[name, v] : snap)
        dg.prev[name] = v;
    deltas.push_back(std::move(dg));
}

void
RunSampler::takeSample(Tick tick)
{
    std::vector<std::pair<std::string, double>> vals;
    vals.reserve(gauges.size());
    for (const auto &[name, fn] : gauges)
        vals.emplace_back(name, fn());
    for (DeltaGroup &dg : deltas) {
        StatSnapshot snap;
        dg.group->snapshot(snap);
        // Match by name, so a delta never pairs one stat's value
        // with another's. A value that shrank means the stat was
        // reset mid-run; restart the delta from the new absolute
        // value (the counter-reset rule) instead of going negative.
        for (const auto &[name, v] : snap) {
            auto it = dg.prev.find(name);
            double old = it != dg.prev.end() ? it->second : 0.0;
            vals.emplace_back("delta." + name,
                              v >= old ? v - old : v);
        }
        dg.prev.clear();
        for (const auto &[name, v] : snap)
            dg.prev[name] = v;
    }
    tl->sample(tick, runId, vals);
}

void
RunSampler::finish()
{
    if (!eq)
        return;
    eq->setClockHook(0, {});
    // Final row: runs shorter than one interval still record their
    // end state.
    takeSample(eq->curTick());
    eq = nullptr;
}

} // namespace timeline
} // namespace specrt
