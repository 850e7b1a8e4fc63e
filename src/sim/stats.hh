/**
 * @file
 * A small gem5-flavored statistics package.
 *
 * Stats register themselves with a StatGroup at construction; the
 * group can dump every stat with name, description, and value(s).
 * Two kinds are provided:
 *   Scalar     -- a single counter or value
 *   VectorStat -- a fixed-length vector of counters (e.g.\ per node)
 */

#ifndef SPECRT_SIM_STATS_HH
#define SPECRT_SIM_STATS_HH

#include <cstddef>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace specrt
{

class StatGroup;

/** Flat (dotted-name, value) pairs captured by snapshot(). */
using StatSnapshot = std::vector<std::pair<std::string, double>>;

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(StatGroup *parent, std::string name, std::string desc);
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Print "name value # desc" line(s). */
    virtual void print(std::ostream &os, const std::string &prefix)
        const = 0;

    /**
     * Append this stat's value(s) to @p out as (dotted-name, value)
     * pairs -- the machine-readable twin of print().
     */
    virtual void snapshot(StatSnapshot &out,
                          const std::string &prefix) const = 0;

    /** Reset to the initial (zero) state. */
    virtual void reset() = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A group of statistics, dumped and reset together. */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : _name(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return _name; }

    void addStat(StatBase *stat) { stats.push_back(stat); }
    void
    addChild(StatGroup *child)
    {
        children.push_back(child);
    }

    /** Dump this group and all children. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /**
     * Capture every stat in this group and all children as flat
     * (dotted-name, value) pairs (benchmark telemetry). Dotted names
     * must be unique across the whole subtree -- duplicates would
     * silently shadow each other in every keyed consumer (telemetry
     * JSON, timeline deltas) -- so debug builds assert on collisions.
     */
    void snapshot(StatSnapshot &out,
                  const std::string &prefix = "") const;

    /** Reset all stats in this group and all children. */
    void resetStats();

  private:
    void snapshotInto(StatSnapshot &out,
                      const std::string &prefix) const;

    std::string _name;
    std::vector<StatBase *> stats;
    std::vector<StatGroup *> children;
};

/** A single scalar counter. */
class Scalar : public StatBase
{
  public:
    Scalar(StatGroup *parent, std::string name, std::string desc)
        : StatBase(parent, std::move(name), std::move(desc))
    {}

    Scalar &operator=(double v) { _value = v; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator++() { _value += 1; return *this; }

    double value() const { return _value; }

    void print(std::ostream &os, const std::string &prefix)
        const override;
    void snapshot(StatSnapshot &out,
                  const std::string &prefix) const override;
    void reset() override { _value = 0; }

  private:
    double _value = 0;
};

/** A fixed-length vector of counters. */
class VectorStat : public StatBase
{
  public:
    VectorStat(StatGroup *parent, std::string name, std::string desc,
               size_t size)
        : StatBase(parent, std::move(name), std::move(desc)),
          values(size, 0.0)
    {}

    double &operator[](size_t i) { return values.at(i); }
    double operator[](size_t i) const { return values.at(i); }

    size_t size() const { return values.size(); }
    double total() const;

    void print(std::ostream &os, const std::string &prefix)
        const override;
    void snapshot(StatSnapshot &out,
                  const std::string &prefix) const override;
    void reset() override;

  private:
    std::vector<double> values;
};

} // namespace specrt

#endif // SPECRT_SIM_STATS_HH
