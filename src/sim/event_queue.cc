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
    // Exact-cancel invariant: every live slot corresponds to exactly
    // one pending entry; nothing lingers in auxiliary state. (The old
    // lazy-deletion engine leaked its cancelled-id set here whenever
    // the queue died with pending events.)
    SPECRT_ASSERT(slotsInUse == pendingCount,
                  "event queue leaked auxiliary state: "
                  "%zu live slots vs %zu pending events",
                  slotsInUse, pendingCount);
    SPECRT_ASSERT(fifoDead <= fifo.size() - fifoHead,
                  "event queue FIFO lane corrupt: %zu dead of %zu",
                  fifoDead, fifo.size() - fifoHead);
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
    s.loc = LocFree;
    ++s.gen; // stale ids naming this slot stop matching
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
    const Slot &s = slotAt(idx);
    if (s.loc == LocFree || s.gen != static_cast<uint32_t>(id))
        return badIndex;
    return idx;
}

void
EventQueue::insertEntry(Tick when, uint32_t slot, Slot &s)
{
    uint64_t seq = nextSeq++;

    if (when == _curTick) {
        // Fast lane: same-tick events (zero-delay protocol hand-offs)
        // append to a FIFO instead of churning the heap. FIFO entries
        // all carry when == curTick and ascending seq, so the lane is
        // already in fire order.
        s.loc = LocFifo;
        s.pos = static_cast<uint32_t>(fifo.size());
        fifo.push_back(Entry{when, seq, slot});
    } else if (when - _curTick < wheelSpan) {
        // Near future: O(1) append to the tick's bucket chain. Live
        // entries' ticks span less than wheelSpan, so bucket index
        // and tick are in bijection, and appends arrive in ascending
        // seq (scheduling order), keeping each chain fire-ordered.
        s.loc = LocWheel;
        uint32_t node = allocWheelNode();
        wpool[node].e = Entry{when, seq, slot};
        wpool[node].next = badIndex;
        auto b = static_cast<uint32_t>(when & wheelMask);
        if (bucketTail[b] == badIndex)
            bucketHead[b] = node;
        else
            wpool[bucketTail[b]].next = node;
        bucketTail[b] = node;
        s.pos = node;
        ++wheelCount;
        if (when < wheelNext)
            wheelNext = when;
    } else {
        s.loc = LocHeap;
        size_t i = heap.size();
        heap.push_back(Entry{when, seq, slot});
        s.pos = static_cast<uint32_t>(i);
        heapSiftUp(i);
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
        // Cancelled nodes die in place; reap them at the head.
        while (n != badIndex && wpool[n].e.slot == badIndex) {
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
EventQueue::deschedule(EventId id)
{
    uint32_t idx = liveSlotOf(id);
    if (idx == badIndex)
        return; // unknown or already fired: harmless no-op

    Slot &s = slotAt(idx);
    if (s.loc == LocHeap) {
        heapRemove(s.pos);
    } else if (s.loc == LocWheel) {
        // Wheel nodes die in place (O(1)); wheelAdvance reaps them.
        wpool[s.pos].e.slot = badIndex;
    } else {
        // FIFO entries die in place (O(1)); the fire loop skips them.
        // The count stays exact: the event is gone from numPending()
        // and its slot is free for reuse immediately.
        fifo[s.pos].slot = badIndex;
        ++fifoDead;
    }
    if (s.daemon)
        --daemonCount;
    freeSlot(idx); // destroys the callback
    --pendingCount;
}

void
EventQueue::heapSiftUp(size_t i)
{
    Entry e = heap[i];
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!before(e, heap[parent]))
            break;
        heap[i] = heap[parent];
        slotAt(heap[i].slot).pos = static_cast<uint32_t>(i);
        i = parent;
    }
    heap[i] = e;
    slotAt(e.slot).pos = static_cast<uint32_t>(i);
}

void
EventQueue::heapSiftDown(size_t i)
{
    size_t n = heap.size();
    Entry e = heap[i];
    while (true) {
        size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], e))
            break;
        heap[i] = heap[child];
        slotAt(heap[i].slot).pos = static_cast<uint32_t>(i);
        i = child;
    }
    heap[i] = e;
    slotAt(e.slot).pos = static_cast<uint32_t>(i);
}

EventQueue::Entry
EventQueue::heapRemove(size_t i)
{
    Entry e = heap[i];
    size_t last = heap.size() - 1;
    if (i != last) {
        heap[i] = heap[last];
        slotAt(heap[i].slot).pos = static_cast<uint32_t>(i);
        heap.pop_back();
        if (i > 0 && before(heap[i], heap[(i - 1) / 2]))
            heapSiftUp(i);
        else
            heapSiftDown(i);
    } else {
        heap.pop_back();
    }
    return e;
}

void
EventQueue::fifoSkipDead()
{
    while (fifoHead < fifo.size() &&
           fifo[fifoHead].slot == badIndex) {
        ++fifoHead;
        --fifoDead;
    }
    if (fifoHead == fifo.size() && fifoHead > 0) {
        fifo.clear(); // keeps capacity: no allocation next round
        fifoHead = 0;
    }
}

void
EventQueue::fire(const Entry &e)
{
    // The callback runs in place: slots live in stable chunks, so
    // events the callback schedules may add chunks but never move
    // this slot, and the slot is only recycled (freeSlot) after the
    // callback returns. Marking the slot LocFree up front keeps the
    // old semantics that descheduling the firing event's own id from
    // inside its callback is a harmless no-op.
    Slot &s = slotAt(e.slot);
    EventKind kind = s.kind;
    if (controller)
        controller->onFire(
            {_curTick, kind, s.actor, s.daemon, e.seq, s.parent});
    if (s.daemon)
        --daemonCount;
    s.loc = LocFree;
    --pendingCount;
    ++_numFired;
    ++_numFiredTotal;
    ++fireDepth;
    uint64_t saved_parent = curParentSeq;
    curParentSeq = e.seq;
    s.cb();
    curParentSeq = saved_parent;
    --fireDepth;
    freeSlot(e.slot); // destroys the callback
    if (postFireHook)
        postFireHook(_curTick, kind);
}

bool
EventQueue::fireNext(Tick limit)
{
    if (controller)
        return fireNextControlled(limit);

    // Only daemon events left: the queue is drained. They stay
    // pending (and unfired) so time never advances past the last
    // piece of real work.
    if (pendingCount == daemonCount)
        return false;

    fifoSkipDead();
    wheelAdvance();
    bool haveFifo = fifoHead < fifo.size();
    bool haveWheel = wheelNext != noWheelTick;
    bool haveHeap = !heap.empty();
    if (!haveFifo && !haveWheel && !haveHeap)
        return false;

    // Global fire order is (when, seq) across all three lanes.
    const Entry *best = haveFifo ? &fifo[fifoHead] : nullptr;
    CandLane lane = CandLane::Fifo;
    if (haveWheel) {
        const Entry &w = wpool[bucketHead[wheelNext & wheelMask]].e;
        if (!best || before(w, *best)) {
            best = &w;
            lane = CandLane::Wheel;
        }
    }
    if (haveHeap && (!best || before(heap[0], *best))) {
        best = &heap[0];
        lane = CandLane::Heap;
    }
    if (best->when > limit)
        return false;

    if (lane == CandLane::Fifo) {
        // Batched same-tick drain. Once the FIFO lane wins the
        // comparison, no wheel or heap entry exists at curTick: such
        // an entry was scheduled on an earlier tick, so it carries a
        // smaller seq than every FIFO entry (all created this tick)
        // and would have won instead. Events fired here can only
        // append to the FIFO (same tick) or push future ticks into
        // the wheel/heap, so the whole contiguous run fires without
        // re-evaluating the lane comparison. The daemon check runs
        // per event: daemons can sit in the FIFO, and they must
        // never fire alone.
        do {
            Entry e = fifo[fifoHead];
            ++fifoHead;
            SPECRT_ASSERT(e.when == _curTick,
                          "FIFO lane event not at current tick");
            fire(e);
            if (stopped || pendingCount == daemonCount)
                break;
            fifoSkipDead();
        } while (fifoHead < fifo.size());
        return true;
    }

    if (lane == CandLane::Wheel) {
        Entry e = *best;
        popWheelHead(static_cast<uint32_t>(wheelNext & wheelMask));
        SPECRT_ASSERT(e.when >= _curTick, "event queue went backwards");
        _curTick = e.when;
        fire(e);
        return true;
    }

    Entry e = heapRemove(0);
    SPECRT_ASSERT(e.when >= _curTick, "event queue went backwards");
    // Time only advances on wheel/heap fires, and only with the FIFO
    // lane empty: a non-empty lane holds (curTick, seq) keys, which
    // win the comparison above against any later-tick candidate.
    _curTick = e.when;
    fire(e);
    return true;
}

bool
EventQueue::fireNextControlled(Tick limit)
{
    if (pendingCount == daemonCount)
        return false;

    fifoSkipDead();
    wheelAdvance();
    bool haveFifo = fifoHead < fifo.size();
    bool haveWheel = wheelNext != noWheelTick;
    bool haveHeap = !heap.empty();
    if (!haveFifo && !haveWheel && !haveHeap)
        return false;

    // The minimum pending tick. Live FIFO entries always carry
    // curTick, so with the lane non-empty the minimum is curTick and
    // any wheel/heap entries at curTick join the candidate set.
    Tick min_when = noWheelTick;
    if (haveFifo)
        min_when = fifo[fifoHead].when;
    if (haveWheel && wheelNext < min_when)
        min_when = wheelNext;
    if (haveHeap && heap[0].when < min_when)
        min_when = heap[0].when;
    if (min_when > limit)
        return false;

    // Gather every ready event at min_when from all lanes, then
    // order by seq: candidate 0 is exactly what the uncontrolled
    // path would fire.
    candScratch.clear();
    if (haveFifo) {
        for (size_t p = fifoHead; p < fifo.size(); ++p) {
            if (fifo[p].slot != badIndex)
                candScratch.push_back({fifo[p].seq,
                                       static_cast<uint32_t>(p),
                                       CandLane::Fifo});
        }
    }
    if (haveWheel && wheelNext == min_when) {
        for (uint32_t n = bucketHead[wheelNext & wheelMask];
             n != badIndex; n = wpool[n].next) {
            if (wpool[n].e.slot != badIndex)
                candScratch.push_back(
                    {wpool[n].e.seq, n, CandLane::Wheel});
        }
    }
    if (haveHeap) {
        for (size_t i = 0; i < heap.size(); ++i) {
            if (heap[i].when == min_when)
                candScratch.push_back({heap[i].seq,
                                       static_cast<uint32_t>(i),
                                       CandLane::Heap});
        }
    }
    SPECRT_ASSERT(!candScratch.empty(), "controlled fire lost the "
                  "ready set");
    std::sort(candScratch.begin(), candScratch.end(),
              [](const Cand &a, const Cand &b) { return a.seq < b.seq; });

    size_t choice = 0;
    if (candScratch.size() > 1) {
        choiceScratch.clear();
        for (const Cand &c : candScratch) {
            const Entry &e = c.lane == CandLane::Heap ? heap[c.idx]
                             : c.lane == CandLane::Wheel
                                 ? wpool[c.idx].e
                                 : fifo[c.idx];
            const Slot &s = slotAt(e.slot);
            choiceScratch.push_back(
                {e.when, s.kind, s.actor, s.daemon, e.seq, s.parent});
        }
        choice = controller->pick(choiceScratch.data(),
                                  choiceScratch.size());
        if (choice >= candScratch.size())
            choice = candScratch.size() - 1;
    }

    const Cand &c = candScratch[choice];
    Entry e;
    if (c.lane == CandLane::Heap) {
        e = heapRemove(c.idx);
        SPECRT_ASSERT(e.when >= _curTick, "event queue went backwards");
        // Advancing to e.when is safe: a live FIFO entry would have
        // forced min_when == curTick, making e.when == curTick too.
        _curTick = e.when;
    } else if (c.lane == CandLane::Wheel) {
        e = wpool[c.idx].e;
        SPECRT_ASSERT(e.when >= _curTick, "event queue went backwards");
        auto b = static_cast<uint32_t>(wheelNext & wheelMask);
        if (c.idx == bucketHead[b]) {
            popWheelHead(b);
        } else {
            // Out-of-order pick: retire the node in place, exactly
            // like a cancellation; wheelAdvance reaps it.
            wpool[c.idx].e.slot = badIndex;
        }
        _curTick = e.when;
    } else {
        e = fifo[c.idx];
        SPECRT_ASSERT(e.when == _curTick,
                      "FIFO lane event not at current tick");
        if (c.idx == fifoHead) {
            ++fifoHead;
        } else {
            // Out-of-order pick: retire the entry in place, exactly
            // like a cancellation; the skip loop reclaims it.
            fifo[c.idx].slot = badIndex;
            ++fifoDead;
        }
    }
    fire(e);
    return true;
}

Tick
EventQueue::run()
{
    stopped = false;
    while (!stopped && fireNext(~Tick(0)))
        ;
    return _curTick;
}

Tick
EventQueue::runUntil(Tick limit)
{
    stopped = false;
    while (!stopped && fireNext(limit))
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
    fifo.clear();
    fifoHead = 0;
    fifoDead = 0;
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
    daemonCount = 0;
    _curTick = 0;
    // nextSeq deliberately survives: like the schedule controller, a
    // controlled run may span several reset legs, and EventChoice::seq
    // must stay unique per run for step identity (verify/explorer).
    // Ordering invariants only need monotonicity, which holds.
    _numFired = 0;
    stopped = false;
    curParentSeq = noEventSeq;
}

} // namespace specrt
