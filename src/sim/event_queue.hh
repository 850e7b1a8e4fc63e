/**
 * @file
 * Discrete-event engine driving the whole simulator.
 *
 * Everything in specrt (processor ops, coherence messages, directory
 * occupancy, barrier releases) is an event scheduled at an absolute
 * Tick. Events scheduled for the same tick fire in schedule order,
 * which keeps the simulation deterministic.
 *
 * The engine is built for the schedule/fire/cancel cycle that every
 * protocol hop takes. Pending events live in one of two lanes:
 *
 *  - a timing wheel for every delay below wheelSpan, zero included
 *    (which covers every modeled latency): O(1) insert into a
 *    per-tick bucket list threaded through a recycled node pool, so
 *    the hot schedule path never pays a heap sift. An event at the
 *    current tick appends to the bucket being drained;
 *  - a binary heap keyed by (tick, sequence) for the rare far-future
 *    events (watchdog backoff).
 *
 * Callbacks are SmallFunctions (small_function.hh) in a slot table,
 * so the steady-state schedule/fire/cancel path performs zero heap
 * allocations once the engine's arrays have grown to the working-set
 * size.
 *
 * Fire order is (tick, sequence) across both lanes: sequence numbers
 * are monotonic in scheduling order, which both keeps the simulation
 * deterministic and keeps each wheel bucket sorted by construction.
 *
 * One cancellation rule serves both lanes. Each lane entry carries
 * its slot's generation, and firing or cancelling an event bumps
 * that generation. An entry whose generation no longer matches is
 * dead; it stays where it is and is dropped when it reaches the
 * front of its lane. EventIds carry the generation too, so
 * cancelling an id whose event already fired or was cancelled is a
 * harmless no-op even after the slot has been reused.
 *
 * One clock hook (setClockHook) serves observers such as the
 * metric-timeline sampler: it sees a fixed grid of ticks as time
 * reaches them, but it is not an event, so an observed run keeps the
 * ticks and event count of an unobserved one.
 */

#ifndef SPECRT_SIM_EVENT_QUEUE_HH
#define SPECRT_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/small_function.hh"
#include "sim/types.hh"

namespace specrt
{

/**
 * Coarse category of a scheduled event: the subsystem that scheduled
 * it. The explorer matches on it, and trace records reuse it as
 * their category (trace::opCategory).
 */
enum class EventKind : uint8_t
{
    Generic,
    Network,
    Cache,
    Directory,
    Processor,
    Sched,
    Spec,
    NumKinds,
};

constexpr size_t numEventKinds =
    static_cast<size_t>(EventKind::NumKinds);

/** Name of an event kind, e.g.\ "network". */
const char *eventKindName(EventKind k);

/** Handle used to cancel a pending event. */
using EventId = uint64_t;

/** Sentinel for "no event". */
constexpr EventId invalidEventId = 0;

/** Scheduling-site actor tag value meaning "site did not say". */
constexpr uint16_t unknownActor = 0xFFFF;

/** Sentinel event sequence number: "no such event". */
constexpr uint64_t noEventSeq = ~uint64_t(0);

/**
 * One ready event offered to a ScheduleController: everything the
 * engine knows about it without touching the callback.
 */
struct EventChoice
{
    Tick when;
    EventKind kind;
    /**
     * Actor tag given at the scheduling site (e.g.\ the destination
     * node of a network delivery); unknownActor when the site did
     * not tag the event.
     */
    uint16_t actor;
    /**
     * Global scheduling sequence number: monotonic in scheduling
     * order, unique within a run, and stable across replays of the
     * same choice prefix. Identifies "the same event" across runs.
     */
    uint64_t seq = 0;
    /**
     * Sequence number of the event whose callback scheduled this one
     * (the creation edge of the happens-before relation), or
     * noEventSeq when scheduled from outside any callback.
     */
    uint64_t parent = noEventSeq;
};

/**
 * One network fault decision point offered to a ScheduleController:
 * a message about to be transmitted whose loss or duplication the
 * protocol is expected to tolerate. Field values mirror the Msg
 * being sent; msgType is the mem-layer MsgType widened to an int so
 * sim/ stays independent of mem/.
 */
struct FaultChoicePoint
{
    Tick when;
    uint16_t msgType;
    uint16_t src;
    uint16_t dst;
    /** Alternative 1 drops the message (a recovery path exists). */
    bool canDrop;
    /** The last alternative delivers the message twice. */
    bool canDup;
};

/**
 * Hook controlling which of several same-tick ready events fires
 * next (verify/explorer.hh drives this to enumerate interleavings).
 *
 * When installed, every point at which two or more events are ready
 * at the minimum pending tick becomes a decision point: the engine
 * gathers the candidates in default (when, seq) order and asks the
 * controller. Returning 0 always reproduces the uncontrolled
 * schedule exactly, so a controller that constantly answers 0 is a
 * no-op (modulo its own observation). pick() is not called for
 * forced moves (a single ready event).
 */
class ScheduleController
{
  public:
    virtual ~ScheduleController() = default;

    /**
     * @param choices the @p n >= 2 ready events, default order.
     * @return index of the event to fire; clamped to [0, n).
     */
    virtual size_t pick(const EventChoice *choices, size_t n) = 0;

    /**
     * Fault decision point: the network is about to transmit a
     * message whose loss/duplication the protocol tolerates. Called
     * only when exploresFaults() is true. Alternative 0 always means
     * "deliver normally"; alternative 1 drops if p.canDrop (else
     * duplicates); alternative 2 (present when both are eligible)
     * duplicates. @p n counts the alternatives (>= 2).
     */
    virtual size_t pickFault(const FaultChoicePoint &p, size_t n)
    {
        (void)p;
        (void)n;
        return 0;
    }

    /**
     * Opt-in for fault decision points. When false (the default) the
     * network never consults pickFault and faults follow the seeded
     * FaultPlan as usual.
     */
    virtual bool exploresFaults() const { return false; }

    /**
     * Observation hook: called once per fired event, in fire order,
     * with the event's full identity (including seq and creation
     * parent). Fires for forced moves too, not just decision points
     * -- this is the per-run step trace DPOR computes races over.
     */
    virtual void onFire(const EventChoice &fired) { (void)fired; }
};

/**
 * A single-threaded discrete-event queue.
 *
 * The queue owns the current simulated time. Callbacks may schedule
 * further events (including at the current tick, which fire later in
 * the same tick).
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in cycles. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p callback to fire at absolute time @p when. The
     * optional @p actor tag names the model entity the event acts on
     * (e.g.\ the destination node of a message delivery); it is only
     * observed by ScheduleControllers.
     *
     * Templated over the callable so the callback is constructed
     * directly inside its event slot -- the hot path performs zero
     * SmallFunction relocations between the call site and fire().
     *
     * @return a handle usable with deschedule().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&callback,
             EventKind kind = EventKind::Generic,
             uint16_t actor = unknownActor)
    {
        return scheduleImpl(when, std::forward<F>(callback), kind,
                            actor);
    }

    /** Schedule @p callback @p delay cycles from now. */
    template <typename F>
    EventId
    scheduleIn(Cycles delay, F &&callback,
               EventKind kind = EventKind::Generic,
               uint16_t actor = unknownActor)
    {
        return scheduleImpl(_curTick + delay,
                            std::forward<F>(callback), kind, actor);
    }

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * event is a harmless no-op.
     */
    void deschedule(EventId id);

    /** Number of events still pending (cancelled events excluded). */
    size_t numPending() const { return pendingCount; }

    /** True if no events are pending. */
    bool empty() const { return pendingCount == 0; }

    /**
     * Run until the queue drains or stop() is called.
     * @return the tick of the last event fired.
     */
    Tick run();

    /** Make run() return before firing the next event. */
    void stop() { stopped = true; }

    /** Events fired since construction; survives reset(). */
    uint64_t numFired() const { return _numFired; }

    /**
     * Drop every pending event. The tick, the schedule controller,
     * the post-fire hook and the clock hook survive: a run may span
     * several reset legs (machine resets between phases), and its
     * time runs on across them.
     */
    void reset();

    /**
     * Install (or with nullptr remove) the controller consulted at
     * same-tick decision points. Exploration-only: when absent (the
     * default) the fire path is the plain deterministic one.
     */
    void setScheduleController(ScheduleController *c)
    {
        controller = c;
    }
    ScheduleController *scheduleController() const { return controller; }

    /**
     * Install a hook called after every fired event's callback
     * returns (per-delivery invariant checking). Empty function
     * removes it. The hook must not mutate the queue's schedule
     * beyond what ordinary callbacks may do (scheduling is fine;
     * it runs at a point where the fired event is fully retired).
     */
    void setPostFireHook(std::function<void(Tick, EventKind)> h)
    {
        postFireHook = std::move(h);
    }

    /**
     * Install (or with an empty @p fn remove) the clock hook. fn(t)
     * runs for each tick t = curTick() + k * @p period (k >= 1) that
     * time reaches, just before the first event at or after t fires.
     * It is not an event: it never keeps the queue alive, never
     * moves curTick() and never counts in numFired(). It runs after
     * the next event is chosen, so it must not schedule or cancel.
     */
    void setClockHook(Tick period, std::function<void(Tick)> fn);

  private:
    static constexpr uint32_t badIndex = UINT32_MAX;

    /**
     * Timing-wheel geometry. Any delay below wheelSpan ticks takes
     * the O(1) wheel path; the modeled latencies (cache, network,
     * memory, busy ops) are all far below it. Power of two so the
     * bucket of an absolute tick is a mask.
     */
    static constexpr uint32_t wheelSpan = 4096;
    static constexpr uint32_t wheelMask = wheelSpan - 1;
    /** "The wheel is empty / position unknown" tick sentinel. */
    static constexpr Tick noWheelTick = ~Tick(0);

    /**
     * Lane entry: a POD ordering key. The callback itself lives in
     * the slot table so heap sifts shuffle 24-byte keys, not 64-byte
     * callables (each of whose moves costs an indirect call).
     */
    struct Entry
    {
        Tick when;
        uint64_t seq;
        /** Owning slot. */
        uint32_t slot;
        /** The slot's generation when scheduled; dead once it moves. */
        uint32_t gen;
    };
    static_assert(sizeof(Entry) == 24, "the generation fits the padding");

    /**
     * Timing-wheel node: ordering key + singly-linked bucket chain.
     * Nodes live in a recycled pool (wpool), so steady-state wheel
     * traffic allocates nothing regardless of which buckets fill.
     */
    struct WheelNode
    {
        Entry e;
        /** Next node in the bucket chain, or the free list. */
        uint32_t next = badIndex;
    };

    struct Slot
    {
        /** Stable home of the event's callback until fire/cancel. */
        SmallFunction cb;
        /**
         * Bumped when the event fires or is cancelled, which kills
         * its lane entry and every id naming it.
         */
        uint32_t gen = 1;
        EventKind kind = EventKind::Generic;
        /** Scheduling-site actor tag (ScheduleController only). */
        uint16_t actor = unknownActor;
        /** Seq of the event whose callback scheduled this one. */
        uint64_t parent = noEventSeq;
        uint32_t nextFree = badIndex;
    };

    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** Heap order for std::push_heap/pop_heap: earliest on top. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            return before(b, a);
        }
    };

    /**
     * Shared schedule body: allocate a slot, construct the callback
     * in place (zero relocations), then link the ordering key into
     * the right lane. The lane linkage is out of line (insertEntry);
     * only the thin type-dependent part is instantiated per callable.
     */
    template <typename F>
    EventId
    scheduleImpl(Tick when, F &&callback, EventKind kind,
                 uint16_t actor)
    {
        SPECRT_ASSERT(when >= _curTick,
                      "scheduling in the past: when=%llu cur=%llu",
                      (unsigned long long)when,
                      (unsigned long long)_curTick);
        uint32_t slot = allocSlot();
        Slot &s = slotAt(slot);
        EventId id =
            (static_cast<uint64_t>(slot) + 1) << 32 | s.gen;
        s.cb.emplace(std::forward<F>(callback));
        s.kind = kind;
        s.actor = actor;
        s.parent = curParentSeq;
        insertEntry(when, slot, s.gen);
        return id;
    }

    /** Link an allocated, filled slot's key into the proper lane. */
    void insertEntry(Tick when, uint32_t slot, uint32_t gen);

    uint32_t allocSlot();
    void freeSlot(uint32_t idx);

    /**
     * Slot lookup. Slots live in fixed-size chunks, so growth never
     * moves an existing slot -- fire() exploits this to run callbacks
     * in place instead of moving them out first.
     */
    Slot &
    slotAt(uint32_t i)
    {
        return slotChunks[i >> slotChunkShift][i & slotChunkMask];
    }
    const Slot &
    slotAt(uint32_t i) const
    {
        return slotChunks[i >> slotChunkShift][i & slotChunkMask];
    }

    /** Decode an id; returns badIndex unless it names a live slot. */
    uint32_t liveSlotOf(EventId id) const;

    /** True once the entry's event has fired or been cancelled. */
    bool
    dead(const Entry &e) const
    {
        return slotAt(e.slot).gen != e.gen;
    }

    /** Drop dead entries from the top of the heap. */
    void heapSkipDead();

    uint32_t allocWheelNode();
    void freeWheelNode(uint32_t n);
    /** Unlink and free the head node of bucket @p b. */
    void popWheelHead(uint32_t b);
    /**
     * Establish the wheel candidate: drop dead nodes at the head of
     * the wheelNext bucket and, when a bucket exhausts, rescan
     * forward for the next occupied one. Afterwards wheelNext is
     * either noWheelTick (wheel empty) or the tick of a live head
     * node.
     */
    void wheelAdvance();
    /** Find the next occupied bucket after wheelNext (or go empty). */
    void wheelRescan();

    /** Move curTick to @p when (every fire path), hook first. */
    void
    advanceTo(Tick when)
    {
        SPECRT_ASSERT(when >= _curTick, "event queue went backwards");
        if (when >= nextClock)
            runClockHook(when);
        _curTick = when;
    }

    /** Call the clock hook for each grid tick up to @p when. */
    void runClockHook(Tick when);

    /**
     * Fire the event owned by @p e, or return false if @p e is dead.
     * Its lane entry may stay in place: fire() bumps the slot's
     * generation, so the entry is dead from then on.
     */
    bool fire(const Entry &e);

    /**
     * One scheduling loop step: fire the globally-next event (and,
     * on the wheel, the rest of its tick), or return false if none
     * is pending.
     */
    bool fireNext();

    /**
     * The controlled variant of fireNext(): gather every ready event
     * at the minimum pending tick from both lanes and let the
     * controller pick which fires. Out of line and cold -- the plain
     * path pays one predicted-not-taken branch for its existence.
     */
    bool fireNextControlled();

    /** Far-future lane, a binary heap under Later. */
    std::vector<Entry> heap;

    /** Wheel node pool + free list (nodes recycled, never shrunk). */
    std::vector<WheelNode> wpool;
    uint32_t wheelFree = badIndex;
    /** Per-bucket chain heads/tails (badIndex = empty). */
    std::vector<uint32_t> bucketHead;
    std::vector<uint32_t> bucketTail;
    /** Nodes physically in buckets (live + dead). */
    size_t wheelCount = 0;
    /** Tick of the earliest occupied bucket (noWheelTick if none). */
    Tick wheelNext = noWheelTick;

    /** Chunked slot storage (stable addresses; see slotAt()). */
    static constexpr uint32_t slotChunkShift = 9;
    static constexpr uint32_t slotChunkLen = 1u << slotChunkShift;
    static constexpr uint32_t slotChunkMask = slotChunkLen - 1;
    std::vector<std::unique_ptr<Slot[]>> slotChunks;
    /** Slots constructed so far (chunks * slotChunkLen covers it). */
    uint32_t slotCount = 0;
    uint32_t freeHead = badIndex;
    size_t slotsInUse = 0;

    size_t pendingCount = 0;
    Tick _curTick = 0;
    uint64_t nextSeq = 0;
    uint64_t _numFired = 0;
    bool stopped = false;
    /** Depth of fire() frames on the stack (reset() guard). */
    uint32_t fireDepth = 0;
    /** Seq of the event whose callback is on the stack (creation
     *  edges for EventChoice::parent); noEventSeq outside fire(). */
    uint64_t curParentSeq = noEventSeq;

    ScheduleController *controller = nullptr;
    std::function<void(Tick, EventKind)> postFireHook;

    /** "No clock hook" grid-tick sentinel: time never reaches it. */
    static constexpr Tick noClock = ~Tick(0);
    std::function<void(Tick)> clockHook;
    Tick clockPeriod = 0;
    /** The next grid tick the hook has not seen (noClock: no hook). */
    Tick nextClock = noClock;

    /** Candidate-gathering scratch of the controlled path. */
    std::vector<Entry> candScratch;
    std::vector<EventChoice> choiceScratch;
};

} // namespace specrt

#endif // SPECRT_SIM_EVENT_QUEUE_HH
