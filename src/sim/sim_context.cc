#include "sim/sim_context.hh"

#include <cstdio>

#include "sim/probe.hh"

namespace specrt
{

namespace
{

/**
 * The active context of this host thread. Null until current() is
 * first called or a ScopedSimContext activates an instance; lazily
 * points at the thread's own default context otherwise.
 */
thread_local SimContext *tlsCurrent = nullptr;

SimContext &
threadDefault()
{
    static thread_local SimContext ctx;
    return ctx;
}

} // namespace

SimContext::~SimContext()
{
    if (!obsDir.empty())
        obs::exportTo(sinks, obsDir, stderr);
}

SimContext &
SimContext::current()
{
    if (!tlsCurrent)
        tlsCurrent = &threadDefault();
    return *tlsCurrent;
}

Rng &
SimContext::rng(const std::string &name)
{
    auto it = rngs.find(name);
    if (it == rngs.end()) {
        it = rngs.emplace(name, Rng(deriveSeed(baseSeed, name)))
                 .first;
    }
    return it->second;
}

void
SimContext::reseed(uint64_t seed)
{
    baseSeed = seed;
    for (auto &[name, stream] : rngs)
        stream.reseed(deriveSeed(baseSeed, name));
}

ScopedSimContext::ScopedSimContext(SimContext &ctx) : prev(tlsCurrent)
{
    tlsCurrent = &ctx;
    probe::refresh();
}

ScopedSimContext::~ScopedSimContext()
{
    tlsCurrent = prev;
    probe::refresh();
}

namespace probe
{

constinit thread_local uint32_t word = 0;

void
refresh()
{
    word = SimContext::current().sinks.on();
}

} // namespace probe

} // namespace specrt
