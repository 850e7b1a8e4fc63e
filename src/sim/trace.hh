/**
 * @file
 * Sim-time protocol trace: a low-overhead ring buffer of typed
 * records covering every layer the paper's detection story touches
 * (network messages, cache/directory state transitions, spec-bit and
 * time-stamp updates, iteration and loop boundaries,
 * checkpoint/abort/commit).
 *
 * Design rules:
 *
 *  - the disabled path is free: every instrumentation site guards
 *    with `if (trace::enabled())`, one bit test of the probe word
 *    (sim/probe.hh). Nothing is allocated until tracing is switched
 *    on.
 *  - records are PODs in a fixed-capacity ring; when the ring is
 *    full the oldest records are overwritten (and counted as
 *    dropped). Tracing never unbounds memory.
 *  - string payloads are static-lifetime `const char *` labels
 *    (message-type names, state names, rule texts), so records stay
 *    trivially copyable and the hot path never builds std::strings.
 *  - each simulator instance is single-threaded (see logging.hh for
 *    the contract); the buffer does no locking. The ring lives in
 *    the instance's SimContext (sim/sim_context.hh), so concurrent
 *    simulator instances on different host threads trace
 *    independently.
 *
 * On a speculation abort, attributeAbort() walks the ring backwards
 * and synthesizes an AbortCause: the failing element, the two
 * conflicting accesses (with nodes and iterations), and the violated
 * rule of paper sections 3.2/3.3. The Chrome/Perfetto trace-event
 * JSON exporter lives in sim/trace_export.hh.
 */

#ifndef SPECRT_SIM_TRACE_HH
#define SPECRT_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace specrt
{
namespace trace
{

/**
 * What happened. The *category* of each op reuses EventKind from
 * sim/event_queue.hh, so the event engine and the trace agree on
 * subsystem names -- see opCategory().
 */
enum class TraceOp : uint8_t
{
    MsgSend,    ///< network accepted a message (one per attempt)
    MsgRecv,    ///< message delivered to its handler
    CacheFill,  ///< line installed in a cache (label: new state)
    CacheEvict, ///< dirty line left a cache (writeback)
    CacheInval, ///< cached copy invalidated
    DirState,   ///< directory entry changed state (a -> b)
    SpecBit,    ///< First/NoShr/ROnly bits changed (a -> b, packed)
    TimeStamp,  ///< MaxR1st/MinW/PMaxR1st/PMaxW moved (a -> b)
    IterBegin,  ///< processor started an iteration
    IterEnd,    ///< processor finished an iteration
    Grant,      ///< scheduler handed out iterations [iter, a)
    LoopBegin,  ///< speculative loop run started
    LoopEnd,    ///< speculative loop run finished
    Checkpoint, ///< backup of the arrays under test taken
    Abort,      ///< speculation failed (label: detector's reason)
    Commit,     ///< speculative state committed (test passed)
    NumOps,
};

constexpr size_t numTraceOps = static_cast<size_t>(TraceOp::NumOps);

/** Name of a trace op, e.g.\ "msg_send". */
const char *traceOpName(TraceOp op);

/** Subsystem category of an op (reuses the event engine's EventKind). */
EventKind opCategory(TraceOp op);

/** Which privatization time stamp a TimeStamp record moved. */
enum class TsStamp : uint8_t
{
    MaxR1st,  ///< shared directory: highest read-first iteration
    MinW,     ///< shared directory: lowest writing iteration
    PMaxR1st, ///< private directory: highest read-first by this proc
    PMaxW,    ///< private directory: highest write by this proc
};

const char *tsStampName(TsStamp s);

/**
 * One trace record. POD; `label` must be a static-lifetime string.
 * The meaning of `a` / `b` / `sub` depends on `op`:
 *
 *   MsgSend/MsgRecv: sub = MsgType, a = line address, b = flow id
 *   CacheFill:       sub = new LineState
 *   DirState:        a = old DirState, b = new DirState
 *   SpecBit:         sub = access is a write, a/b = old/new packed
 *                    non-priv wire bits (npPackDir encoding)
 *   TimeStamp:       sub = TsStamp, a/b = old/new stamp value
 *   Grant:           a = one past the last granted iteration
 *   Abort:           label = detector's reason
 */
struct TraceRecord
{
    Tick tick = 0;
    TraceOp op = TraceOp::NumOps;
    uint8_t sub = 0;
    NodeId node = invalidNode;
    NodeId peer = invalidNode;
    uint32_t loop = 0;
    IterNum iter = 0;
    Addr addr = invalidAddr;
    uint64_t a = 0;
    uint64_t b = 0;
    const char *label = nullptr;
};

/**
 * Fixed-capacity ring of trace records. One per SimContext: each
 * simulator instance records into its own ring, so concurrent
 * instances on different host threads never share trace state. Use
 * trace::buffer() for the current instance's ring.
 */
class TraceBuffer
{
  public:
    static constexpr size_t defaultCapacity = 1u << 18;

    TraceBuffer() = default;

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;
    TraceBuffer(TraceBuffer &&) = default;
    TraceBuffer &operator=(TraceBuffer &&) = default;

    /** Switch tracing on with room for @p capacity records. */
    void enable(size_t capacity = defaultCapacity);
    /** Switch tracing off; keeps the recorded contents. */
    void disable();
    /** Drop all records (capacity and enablement unchanged). */
    void clear();

    /** This ring is recording. */
    bool isOn() const { return on; }

    /** Records currently retained (<= capacity). */
    size_t size() const;
    /** Total records ever emitted (including overwritten ones). */
    uint64_t recorded() const { return total; }
    /** Records lost to ring wrap-around. */
    uint64_t dropped() const;
    size_t capacity() const { return ring.size(); }

    /** Record @p i, oldest first (i in [0, size())). */
    const TraceRecord &at(size_t i) const;

    /** Append one record (no-op unless enabled). */
    void emit(const TraceRecord &r);

    /** Fresh flow id tying a MsgSend to its MsgRecv(s). */
    uint64_t nextFlow() { return ++flowCounter; }

    /** Loop id stamped into subsequent records. */
    void setLoop(uint32_t id) { curLoop = id; }
    uint32_t loop() const { return curLoop; }

  private:
    std::vector<TraceRecord> ring;
    size_t head = 0;     ///< next slot to write
    bool wrapped = false;
    bool on = false;
    uint64_t total = 0;
    uint64_t flowCounter = 0;
    uint32_t curLoop = 0;
};

/** The current SimContext's trace ring. */
TraceBuffer &buffer();

/** True when the current context is tracing (the hot-path guard). */
inline bool
enabled()
{
    return probe::on(probe::Trace);
}

/**
 * Fresh loop id for the current context. Every executor run gets
 * one, so records of consecutive runs (degradation retries, sweep
 * epochs) stay distinguishable in the exported trace while two
 * contexts' ids stay independent (campaign determinism).
 */
uint32_t nextLoopId();

/**
 * The access a SpecBit or TimeStamp record is about: when, at which
 * node, on which element, in which iteration. The speculation units
 * (spec/spec_unit.cc) hold all four in each protocol handler.
 */
struct Access
{
    Tick tick = 0;
    NodeId node = invalidNode;
    Addr elem = invalidAddr;
    IterNum iter = 0;
};

/** Record a non-priv spec-bit transition of access @p a. */
void specBits(const Access &a, bool is_write, uint32_t old_packed,
              uint32_t new_packed);

/** Record a time-stamp move of access @p a. */
void timeStamp(const Access &a, TsStamp which, IterNum old_v,
               IterNum new_v);

// --- abort-cause attribution ------------------------------------------

/**
 * The reconstructed cause of a speculation abort: the failing
 * element, the two conflicting accesses, and the violated rule of
 * paper sections 3.2 (non-privatization access bits) / 3.3
 * (privatization time stamps).
 */
struct AbortCause
{
    bool valid = false;
    Addr elemAddr = invalidAddr;
    NodeId failNode = invalidNode;
    IterNum failIter = 0;
    /** The detector's raw reason string. */
    const char *reason = nullptr;
    /** The paper rule the access pair violates. */
    const char *rule = nullptr;

    /** Earlier access of the conflicting pair (when reconstructed). */
    bool haveEarlier = false;
    TraceRecord earlier;
    /** The failing access itself (when reconstructed). */
    bool haveFailing = false;
    TraceRecord failing;

    /** Multi-line human-readable report. */
    std::string str() const;
};

/**
 * Map a detector reason string onto the §3.2/§3.3 rule it reports.
 * Returns a static string; never null.
 */
const char *violatedRule(const char *reason);

/**
 * Walk @p buf newest-to-oldest and reconstruct the cause of the
 * failure latched for @p elem at @p node in iteration @p iter: the
 * failing access is the newest SpecBit/TimeStamp record for the
 * element by that (node, iter); the conflicting earlier access is
 * the newest one by anyone else. Usable even when the exact pair is
 * gone from the ring (valid is still set; the access fields are just
 * absent).
 */
AbortCause attributeAbort(const TraceBuffer &buf, Addr elem,
                          NodeId node, IterNum iter,
                          const char *reason, Tick tick);

} // namespace trace
} // namespace specrt

#endif // SPECRT_SIM_TRACE_HH
