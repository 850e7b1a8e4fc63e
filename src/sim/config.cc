#include "sim/config.hh"

#include <cstdlib>
#include <sstream>

#include "sim/logging.hh"

namespace specrt
{

namespace
{

bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

TraceConfig
TraceConfig::fromEnv()
{
    TraceConfig tc;
    const char *v = std::getenv("SPECRT_TRACE");
    if (!v || !*v || std::string(v) == "0")
        return tc;
    tc.enabled = true;
    if (std::string(v) != "1")
        tc.outPath = v;
    if (const char *out = std::getenv("SPECRT_TRACE_OUT"))
        tc.outPath = out;
    if (const char *cap = std::getenv("SPECRT_TRACE_CAPACITY")) {
        char *end = nullptr;
        unsigned long long n = std::strtoull(cap, &end, 10);
        if (end && *end == '\0' && n > 0)
            tc.capacityRecords = static_cast<size_t>(n);
        else
            warn("ignoring bad SPECRT_TRACE_CAPACITY '%s'", cap);
    }
    return tc;
}

TimelineConfig
TimelineConfig::fromEnv()
{
    TimelineConfig tc;
    const char *v = std::getenv("SPECRT_TIMELINE");
    if (!v || !*v || std::string(v) == "0")
        return tc;
    tc.enabled = true;
    if (std::string(v) != "1")
        tc.outPath = v;
    if (const char *out = std::getenv("SPECRT_TIMELINE_OUT"))
        tc.outPath = out;
    if (const char *iv = std::getenv("SPECRT_TIMELINE_INTERVAL")) {
        char *end = nullptr;
        unsigned long long n = std::strtoull(iv, &end, 10);
        if (end && *end == '\0' && n > 0)
            tc.intervalTicks = static_cast<Tick>(n);
        else
            warn("ignoring bad SPECRT_TIMELINE_INTERVAL '%s'", iv);
    }
    return tc;
}

CritpathConfig
CritpathConfig::fromEnv()
{
    CritpathConfig cc;
    const char *v = std::getenv("SPECRT_CRITPATH");
    if (!v || !*v || std::string(v) == "0")
        return cc;
    cc.enabled = true;
    if (std::string(v) != "1")
        cc.outPath = v;
    if (const char *out = std::getenv("SPECRT_CRITPATH_OUT"))
        cc.outPath = out;
    return cc;
}

void
MachineConfig::validate() const
{
    // The full-map directory keeps one presence bit per node in a
    // 64-bit sharer set.
    if (numProcs < 1 || numProcs > 64)
        fatal("numProcs must be in [1, 64], got %d", numProcs);
    if (!isPow2(pageBytes))
        fatal("pageBytes must be a power of two, got %u", pageBytes);
    for (const CacheConfig *c : {&l1, &l2}) {
        if (!isPow2(c->lineBytes) || !isPow2(c->sizeBytes))
            fatal("cache size/line must be powers of two");
        if (c->sizeBytes < c->lineBytes)
            fatal("cache smaller than one line");
    }
    if (l1.lineBytes != l2.lineBytes)
        fatal("L1 and L2 must share a line size (got %u vs %u)",
              l1.lineBytes, l2.lineBytes);
    if (l2.sizeBytes < l1.sizeBytes)
        fatal("L2 must be at least as large as L1 (inclusion)");
    if (writeBufferEntries < 1)
        fatal("writeBufferEntries must be >= 1");
    for (double p : {fault.dropProb, fault.dupProb, fault.jitterProb}) {
        if (p < 0 || p > 1)
            fatal("fault probabilities must be in [0, 1], got %g", p);
    }
    if (fault.dropProb > 0 && fault.watchdogTimeout == 0)
        fatal("fault.dropProb requires the transaction watchdog "
              "(fault.watchdogTimeout > 0): dropped requests are "
              "only recovered by requester retry");
    if (fault.watchdogMaxRetries < 0)
        fatal("fault.watchdogMaxRetries must be >= 0");
}

std::string
MachineConfig::summary() const
{
    std::ostringstream os;
    os << numProcs << " procs, L1 " << (l1.sizeBytes / 1024) << "KB/"
       << l1.lineBytes << "B, L2 " << (l2.sizeBytes / 1024) << "KB/"
       << l2.lineBytes << "B, page " << pageBytes << "B";
    return os.str();
}

uint64_t
MachineConfig::fingerprint() const
{
    uint64_t h = 14695981039346656037ull; // FNV offset basis
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull; // FNV prime
        }
    };
    mix(static_cast<uint64_t>(numProcs));
    mix(pageBytes);
    mix(l1.sizeBytes);
    mix(l1.lineBytes);
    mix(l2.sizeBytes);
    mix(l2.lineBytes);
    mix(lat.l1Hit);
    mix(lat.l2Access);
    mix(lat.dirMemAccess);
    mix(lat.dirLookup);
    mix(lat.ownerAccess);
    mix(lat.netHop);
    mix(lat.invalCycles);
    mix(lat.dirOccupancy);
    mix(lat.memOccupancy);
    mix(static_cast<uint64_t>(writeBufferEntries));
    mix(schedLockCycles);
    mix(barrierCycles);
    return h;
}

} // namespace specrt
