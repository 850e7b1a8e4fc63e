/**
 * @file
 * Machine configuration for the modeled CC-NUMA multiprocessor.
 *
 * Defaults follow the experimental setup of Zhang, Rauchwerger &
 * Torrellas (HPCA 1998), section 5.1: 200-MHz processors, 32-KB
 * direct-mapped on-chip L1, 512-KB direct-mapped L2, 64-byte lines, a
 * DASH-like invalidation protocol, and unloaded round-trip latencies
 * of 1 / 12 / 60 / 208 / 291 cycles to L1 / L2 / local memory /
 * 2-hop remote memory / 3-hop remote memory. The component latencies
 * below compose to those round trips; bench_latency_table verifies
 * this on the built simulator.
 */

#ifndef SPECRT_SIM_CONFIG_HH
#define SPECRT_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace specrt
{

/** Geometry of one cache level. All caches are direct-mapped. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    uint64_t sizeBytes;
    /** Line size in bytes. */
    uint32_t lineBytes;

    uint64_t numLines() const { return sizeBytes / lineBytes; }
};

/**
 * Component latencies, in processor cycles. All are one-way service
 * times; round trips are sums over the transaction path.
 */
struct LatencyConfig
{
    /** L1 hit (load-to-use). */
    Cycles l1Hit = 1;
    /** L1 miss detection + L2 array access + refill into L1. */
    Cycles l2Access = 11;
    /**
     * Home-node directory + memory access, overlapped ("in the home
     * node, directory and memory are accessed at the same time").
     */
    Cycles dirMemAccess = 48;
    /** Directory lookup only (when the home must forward). */
    Cycles dirLookup = 20;
    /** Owner-cache intervention: fetch dirty line out of a cache. */
    Cycles ownerAccess = 37;
    /** One network traversal between any two distinct nodes. */
    Cycles netHop = 74;
    /** Invalidation processing at a sharer cache. */
    Cycles invalCycles = 4;
    /**
     * Minimum occupancy of a directory controller per transaction;
     * models contention at the home (the network itself is modeled
     * contention-free, as in the paper).
     */
    Cycles dirOccupancy = 6;
    /** Minimum occupancy of the L2/memory port per request. */
    Cycles memOccupancy = 4;
};

/**
 * Fault-injection and transaction-watchdog knobs.
 *
 * All injection is driven by a seeded FaultPlan (sim/fault.hh) wired
 * into Network::send(), so a given (seed, workload, config) triple
 * replays the exact same fault schedule. Message drops are only
 * allowed for transactions that can be retried: requests covered by
 * the cache-controller watchdog and fire-and-forget speculation
 * signals retransmitted by the network interface.
 */
struct FaultConfig
{
    /** Seed of the fault schedule. */
    uint64_t seed = 0;

    /** Probability a drop-eligible message is lost in the network. */
    double dropProb = 0;
    /** Probability a dup-eligible message is delivered twice. */
    double dupProb = 0;
    /** Probability a message gets extra delivery latency. */
    double jitterProb = 0;
    /** Maximum extra latency of a jittered message, in cycles. */
    Cycles jitterMaxCycles = 200;

    /**
     * Transaction watchdog timeout in cycles (0 = watchdog off).
     * A requester whose miss/upgrade transaction exceeds this retries
     * the request; the timeout doubles per retry (exponential
     * backoff). Dropped fire-and-forget signals are retransmitted by
     * the network on the same schedule.
     */
    Cycles watchdogTimeout = 0;
    /** Retries before a transaction is declared lost. */
    int watchdogMaxRetries = 4;

    /** Any injection enabled at all. */
    bool
    anyFaults() const
    {
        return dropProb > 0 || dupProb > 0 || jitterProb > 0;
    }

    /**
     * Whether the protocol engines must tolerate duplicate and stray
     * messages instead of asserting: injection or the watchdog (which
     * can retry spuriously on a slow reply) can produce them.
     */
    bool
    lenientProtocol() const
    {
        return anyFaults() || watchdogTimeout > 0;
    }
};

/** Full machine description. */
struct MachineConfig
{
    /** Number of nodes == number of processors. */
    int numProcs = 16;
    /** Page size used for round-robin data placement. */
    uint32_t pageBytes = 4096;

    CacheConfig l1 = {32 * 1024, 64};
    CacheConfig l2 = {512 * 1024, 64};
    LatencyConfig lat;

    /** Write-buffer entries per processor (no stall on write miss). */
    int writeBufferEntries = 16;

    /**
     * Cycles a processor holds the dynamic-scheduling lock when
     * grabbing a chunk of iterations (covers the remote atomic on
     * the shared counter). Grabs serialize, so this is also the
     * minimum spacing between grants under contention.
     */
    Cycles schedLockCycles = 100;

    /**
     * Cost of one barrier episode (arrival of the last processor to
     * release), charged at every phase boundary.
     */
    Cycles barrierCycles = 150;

    /** Fault injection + watchdog (off by default). */
    FaultConfig fault;

    /** Checks that the configuration is self-consistent (fatal()s). */
    void validate() const;

    /** Human-readable one-line summary. */
    std::string summary() const;

    /**
     * Stable FNV-1a hash over every modeled-machine parameter.
     * Benchmark telemetry records it so perf points taken under
     * different machine models are never compared against each
     * other.
     */
    uint64_t fingerprint() const;
};

} // namespace specrt

#endif // SPECRT_SIM_CONFIG_HH
