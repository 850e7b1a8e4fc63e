#include "sim/stats.hh"

#include <set>

#include "sim/logging.hh"

namespace specrt
{

StatBase::StatBase(StatGroup *parent, std::string name, std::string desc)
    : _name(std::move(name)), _desc(std::move(desc))
{
    if (parent)
        parent->addStat(this);
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string full = prefix.empty() ? _name : prefix + "." + _name;
    for (const StatBase *stat : stats)
        stat->print(os, full);
    for (const StatGroup *child : children)
        child->dump(os, full);
}

void
StatGroup::snapshot(StatSnapshot &out, const std::string &prefix) const
{
#ifndef NDEBUG
    size_t first = out.size();
#endif
    snapshotInto(out, prefix);
#ifndef NDEBUG
    // Duplicate dotted names (two same-named children, say) would
    // silently shadow each other in every keyed consumer; check the
    // range this call appended.
    std::set<std::string> seen;
    for (size_t i = first; i < out.size(); ++i) {
        SPECRT_ASSERT(seen.insert(out[i].first).second,
                      "duplicate stat name '%s' in snapshot of "
                      "group '%s'",
                      out[i].first.c_str(), _name.c_str());
    }
#endif
}

void
StatGroup::snapshotInto(StatSnapshot &out,
                        const std::string &prefix) const
{
    std::string full = prefix.empty() ? _name : prefix + "." + _name;
    for (const StatBase *stat : stats)
        stat->snapshot(out, full);
    for (const StatGroup *child : children)
        child->snapshotInto(out, full);
}

void
StatGroup::resetStats()
{
    for (StatBase *stat : stats)
        stat->reset();
    for (StatGroup *child : children)
        child->resetStats();
}

void
Scalar::print(std::ostream &os, const std::string &prefix) const
{
    os << prefix << "." << name() << " " << _value
       << " # " << desc() << "\n";
}

void
Scalar::snapshot(StatSnapshot &out, const std::string &prefix) const
{
    out.emplace_back(prefix + "." + name(), _value);
}

double
VectorStat::total() const
{
    double t = 0;
    for (double v : values)
        t += v;
    return t;
}

void
VectorStat::print(std::ostream &os, const std::string &prefix) const
{
    for (size_t i = 0; i < values.size(); ++i) {
        os << prefix << "." << name() << "[" << i << "] " << values[i]
           << " # " << desc() << "\n";
    }
    os << prefix << "." << name() << ".total " << total()
       << " # " << desc() << "\n";
}

void
VectorStat::snapshot(StatSnapshot &out, const std::string &prefix) const
{
    // Telemetry keeps the aggregate; per-index values stay a
    // print()-only affair to keep the JSON records small.
    out.emplace_back(prefix + "." + name() + ".total", total());
}

void
VectorStat::reset()
{
    for (double &v : values)
        v = 0;
}

} // namespace specrt
