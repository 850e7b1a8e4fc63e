#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace specrt
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::Generic: return "generic";
      case EventKind::Network: return "network";
      case EventKind::Cache: return "cache";
      case EventKind::Directory: return "directory";
      case EventKind::Processor: return "processor";
      case EventKind::Sched: return "sched";
      case EventKind::Spec: return "spec";
      default: return "?";
    }
}

EventQueue::EventQueue()
    : bucketHead(wheelSpan, badIndex), bucketTail(wheelSpan, badIndex)
{
}

EventQueue::~EventQueue()
{
    // Every live slot belongs to exactly one pending event: cancelled
    // and fired events free their slots at once, whatever dead
    // entries their lanes still hold.
    SPECRT_ASSERT(slotsInUse == pendingCount,
                  "event queue leaked auxiliary state: "
                  "%zu live slots vs %zu pending events",
                  slotsInUse, pendingCount);
}

uint32_t
EventQueue::allocSlot()
{
    uint32_t idx;
    if (freeHead != badIndex) {
        idx = freeHead;
        freeHead = slotAt(idx).nextFree;
    } else {
        if ((slotCount >> slotChunkShift) == slotChunks.size())
            slotChunks.emplace_back(new Slot[slotChunkLen]);
        idx = slotCount++;
    }
    ++slotsInUse;
    return idx;
}

void
EventQueue::freeSlot(uint32_t idx)
{
    Slot &s = slotAt(idx);
    s.cb.clear(); // no-op if fire() already cleared it
    s.nextFree = freeHead;
    freeHead = idx;
    --slotsInUse;
}

uint32_t
EventQueue::liveSlotOf(EventId id) const
{
    if (id == invalidEventId)
        return badIndex;
    uint64_t hi = id >> 32;
    if (hi == 0 || hi > slotCount)
        return badIndex;
    auto idx = static_cast<uint32_t>(hi - 1);
    // A fired or cancelled event bumped the generation, and a free
    // slot's current generation has not been handed out yet.
    if (slotAt(idx).gen != static_cast<uint32_t>(id))
        return badIndex;
    return idx;
}

void
EventQueue::insertEntry(Tick when, uint32_t slot, uint32_t gen)
{
    Entry e{when, nextSeq++, slot, gen};
    if (when - _curTick < wheelSpan) {
        // O(1) append to the tick's bucket chain. Live entries' ticks
        // span less than wheelSpan, so bucket index and tick are in
        // bijection, and appends arrive in ascending seq (scheduling
        // order), keeping each chain fire-ordered. A same-tick event
        // lands behind the ones firing now.
        uint32_t node = allocWheelNode();
        wpool[node].e = e;
        wpool[node].next = badIndex;
        auto b = static_cast<uint32_t>(when & wheelMask);
        if (bucketTail[b] == badIndex)
            bucketHead[b] = node;
        else
            wpool[bucketTail[b]].next = node;
        bucketTail[b] = node;
        ++wheelCount;
        if (when < wheelNext)
            wheelNext = when;
    } else {
        heap.push_back(e);
        std::push_heap(heap.begin(), heap.end(), Later{});
    }
    ++pendingCount;
}

uint32_t
EventQueue::allocWheelNode()
{
    if (wheelFree != badIndex) {
        uint32_t n = wheelFree;
        wheelFree = wpool[n].next;
        return n;
    }
    wpool.emplace_back();
    return static_cast<uint32_t>(wpool.size() - 1);
}

void
EventQueue::freeWheelNode(uint32_t n)
{
    wpool[n].next = wheelFree;
    wheelFree = n;
}

void
EventQueue::popWheelHead(uint32_t b)
{
    uint32_t n = bucketHead[b];
    bucketHead[b] = wpool[n].next;
    if (bucketHead[b] == badIndex)
        bucketTail[b] = badIndex;
    freeWheelNode(n);
    --wheelCount;
}

void
EventQueue::wheelRescan()
{
    if (wheelCount == 0) {
        wheelNext = noWheelTick;
        return;
    }
    // Some bucket is occupied, and every node's tick is within
    // wheelSpan of here, so a forward scan of at most wheelSpan
    // buckets finds it. The scan distance equals the actual tick gap
    // to the next event -- short whenever the queue is busy.
    for (Tick t = wheelNext + 1;; ++t) {
        if (bucketHead[t & wheelMask] != badIndex) {
            wheelNext = t;
            return;
        }
        SPECRT_ASSERT(t - wheelNext < wheelSpan,
                      "wheel lost its %zu nodes", wheelCount);
    }
}

void
EventQueue::wheelAdvance()
{
    while (wheelNext != noWheelTick) {
        uint32_t b = wheelNext & wheelMask;
        uint32_t n = bucketHead[b];
        while (n != badIndex && dead(wpool[n].e)) {
            popWheelHead(b);
            n = bucketHead[b];
        }
        if (n != badIndex) {
            SPECRT_ASSERT(wpool[n].e.when == wheelNext,
                          "wheel bucket tick skew");
            return;
        }
        wheelRescan();
    }
}

void
EventQueue::heapSkipDead()
{
    while (!heap.empty() && dead(heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
    }
}

void
EventQueue::deschedule(EventId id)
{
    uint32_t idx = liveSlotOf(id);
    if (idx == badIndex)
        return; // unknown, fired or cancelled: harmless no-op

    // The lane entry dies in place; its lane drops it at the front.
    // The count stays exact: the event is gone from numPending() and
    // its slot is free for reuse immediately.
    ++slotAt(idx).gen;
    freeSlot(idx); // destroys the callback
    --pendingCount;
}

bool
EventQueue::fire(const Entry &e)
{
    Slot &s = slotAt(e.slot);
    if (s.gen != e.gen)
        return false; // dead: fired or cancelled already

    // The callback runs in place: slots live in stable chunks, so
    // events the callback schedules may add chunks but never move
    // this slot, and the slot is only recycled (freeSlot) after the
    // callback returns. Bumping the generation up front makes
    // descheduling the firing event's own id from inside its
    // callback a harmless no-op.
    EventKind kind = s.kind;
    if (controller)
        controller->onFire({_curTick, kind, s.actor, e.seq, s.parent});
    ++s.gen;
    --pendingCount;
    ++_numFired;
    ++fireDepth;
    uint64_t saved_parent = curParentSeq;
    curParentSeq = e.seq;
    s.cb();
    curParentSeq = saved_parent;
    --fireDepth;
    freeSlot(e.slot); // destroys the callback
    if (postFireHook)
        postFireHook(_curTick, kind);
    return true;
}

bool
EventQueue::fireNext()
{
    if (controller)
        return fireNextControlled();
    if (pendingCount == 0)
        return false;

    wheelAdvance();
    heapSkipDead();
    // Some event is live, so at least one lane has a live front.
    auto b = static_cast<uint32_t>(wheelNext & wheelMask);
    if (!heap.empty() && (wheelNext == noWheelTick ||
                          before(heap.front(), wpool[bucketHead[b]].e))) {
        Entry e = heap.front();
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
        advanceTo(e.when);
        fire(e);
        return true;
    }

    // Batched drain of the wheel's earliest tick. No heap entry is
    // due at this tick: a heap entry at tick T was scheduled at least
    // wheelSpan ticks before T, so it carries a smaller seq than any
    // wheel entry at T and would have won above. Events fired here
    // append same-tick events to this bucket and send later ones to
    // the wheel or the heap, so the whole bucket fires without
    // re-comparing the lanes; fire() skips its dead entries. The
    // clock hook runs once, before the bucket's first event.
    advanceTo(wheelNext);
    do {
        Entry e = wpool[bucketHead[b]].e;
        popWheelHead(b);
        if (fire(e) && stopped)
            break;
    } while (bucketHead[b] != badIndex);
    return true;
}

bool
EventQueue::fireNextControlled()
{
    if (pendingCount == 0)
        return false;

    wheelAdvance();
    heapSkipDead();
    Tick min_when = wheelNext;
    if (!heap.empty() && heap.front().when < min_when)
        min_when = heap.front().when;

    // Gather every ready event at min_when from both lanes, then
    // order by seq: candidate 0 is exactly what the uncontrolled
    // path would fire.
    candScratch.clear();
    if (wheelNext == min_when) {
        for (uint32_t n = bucketHead[wheelNext & wheelMask];
             n != badIndex; n = wpool[n].next) {
            if (!dead(wpool[n].e))
                candScratch.push_back(wpool[n].e);
        }
    }
    for (const Entry &e : heap) {
        if (e.when == min_when && !dead(e))
            candScratch.push_back(e);
    }
    SPECRT_ASSERT(!candScratch.empty(), "controlled fire lost the "
                  "ready set");
    std::sort(candScratch.begin(), candScratch.end(),
              [](const Entry &a, const Entry &b) {
                  return a.seq < b.seq;
              });

    size_t choice = 0;
    if (candScratch.size() > 1) {
        choiceScratch.clear();
        for (const Entry &e : candScratch) {
            const Slot &s = slotAt(e.slot);
            choiceScratch.push_back(
                {e.when, s.kind, s.actor, e.seq, s.parent});
        }
        choice = controller->pick(choiceScratch.data(),
                                  choiceScratch.size());
        if (choice >= candScratch.size())
            choice = candScratch.size() - 1;
    }

    // The pick stays in its lane; fire() kills it, and the lane
    // drops it once it reaches the front.
    Entry e = candScratch[choice];
    advanceTo(e.when);
    fire(e);
    return true;
}

void
EventQueue::setClockHook(Tick period, std::function<void(Tick)> fn)
{
    SPECRT_ASSERT(!fn || period > 0, "a clock hook needs a period");
    clockHook = std::move(fn);
    clockPeriod = period;
    nextClock = clockHook ? _curTick + period : noClock;
}

void
EventQueue::runClockHook(Tick when)
{
    size_t pending = pendingCount;
    do {
        clockHook(nextClock);
        nextClock += clockPeriod;
    } while (when >= nextClock);
    SPECRT_ASSERT(pendingCount == pending,
                  "the clock hook changed the schedule");
}

Tick
EventQueue::run()
{
    stopped = false;
    while (!stopped && fireNext())
        ;
    return _curTick;
}

void
EventQueue::reset()
{
    // Destroying the slot chunks while a callback executes out of one
    // would pull the stack out from under it; reset() is a between-
    // phases operation, never a callback's.
    SPECRT_ASSERT(fireDepth == 0,
                  "EventQueue::reset() called from inside a callback");
    heap.clear();
    wpool.clear();
    wheelFree = badIndex;
    std::fill(bucketHead.begin(), bucketHead.end(), badIndex);
    std::fill(bucketTail.begin(), bucketTail.end(), badIndex);
    wheelCount = 0;
    wheelNext = noWheelTick;
    slotChunks.clear();
    slotCount = 0;
    freeHead = badIndex;
    slotsInUse = 0;
    pendingCount = 0;
    // _curTick survives, and with it the clock hook's grid, so the
    // records of one run (trace, timeline, event log) share one time
    // axis across its machine resets.
    // nextSeq deliberately survives: like the schedule controller, a
    // controlled run may span several reset legs, and EventChoice::seq
    // must stay unique per run for step identity (verify/explorer).
    // Ordering invariants only need monotonicity, which holds.
    stopped = false;
    curParentSeq = noEventSeq;
}

} // namespace specrt
