/**
 * @file
 * Direct-mapped cache arrays for one node.
 *
 * The node-visible coherence state and the line data live in the L2
 * array (the node's copy exists once). The L1 array is a tag-only
 * presence filter used for latency: an address "hits in L1" when the
 * L1 set holds its tag AND the L2 holds the line (inclusion). L2
 * evictions invalidate any matching L1 entry.
 *
 * The L2 is a dense array of per-set tags, states and data pointers.
 * A set's line data is allocated at its first fill, from small
 * chunks, and the set keeps it for the cache's lifetime: a run that
 * fills k sets holds storage for k lines, not for the whole L2 (the
 * paper's 512 KB L2 has 8,192 sets; a 16-node P3m HW run fills about
 * 1,900 per node).
 */

#ifndef SPECRT_MEM_CACHE_HH
#define SPECRT_MEM_CACHE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace specrt
{

/** Node-level coherence state of a line. */
enum class LineState : uint8_t
{
    Invalid,
    Shared,  ///< clean, possibly multiple nodes
    Dirty,   ///< exclusive modified, memory stale
};

const char *lineStateName(LineState s);

/** One L2 set: the tag and state of its line, and the line's data. */
struct L2Set
{
    /** Line-aligned address; invalidAddr while Invalid, so a lookup
     *  is one tag compare. */
    Addr addr = invalidAddr;
    /** lineBytes() bytes; null until the set's first fill. */
    uint8_t *data = nullptr;
    LineState state = LineState::Invalid;

    bool valid() const { return state != LineState::Invalid; }
};

/**
 * The two-level cache structure of one node.
 */
class NodeCache
{
  public:
    NodeCache(const MachineConfig &config);

    uint32_t lineBytes() const { return _lineBytes; }
    uint64_t numL2Lines() const { return sets.size(); }

    /** Sets holding line storage: those filled at least once. */
    uint64_t linesStored() const { return stored; }

    Addr lineAlign(Addr a) const { return a & ~Addr(_lineBytes - 1); }

    /**
     * L2 set index for an address. Geometry is power-of-two
     * (config.validate() enforces it), so indexing is shift+mask --
     * these sit on the per-access hot path, where the division the
     * obvious formula implies is measurable.
     */
    uint64_t l2Index(Addr a) const { return (a >> _lineShift) & _l2Mask; }

    /** L1 set index for an address. */
    uint64_t l1Index(Addr a) const { return (a >> _lineShift) & _l1Mask; }

    /** The L2 line holding @p a, or nullptr if not present.
     *  Header-inline: this is the single hottest memory-system call
     *  (once per load/store/invalidate/fill). */
    L2Set *
    findLine(Addr a)
    {
        L2Set &set = sets[l2Index(a)];
        return set.addr == lineAlign(a) ? &set : nullptr;
    }
    const L2Set *
    findLine(Addr a) const
    {
        const L2Set &set = sets[l2Index(a)];
        return set.addr == lineAlign(a) ? &set : nullptr;
    }

    /** True if @p a hits in the L1 filter (implies L2 presence). */
    bool l1Hit(Addr a) const;

    /**
     * True if the L1 filter holds @p a's tag (no L2 presence check).
     * For callers that already resolved the L2 line and want to
     * avoid a second lookup: l1Hit(a) == l1TagHit(a) && findLine(a).
     */
    bool
    l1TagHit(Addr a) const
    {
        return l1Tags[l1Index(a)] == lineAlign(a);
    }

    /** Install @p a in the L1 filter (possibly displacing a tag). */
    void l1Fill(Addr a);

    /** Remove @p a from the L1 filter if present. */
    void l1Evict(Addr a);

    /**
     * Install a line in L2 (and L1). If the set holds a valid line of
     * another tag, @p on_victim(const L2Set &) sees it first --
     * state and data intact -- and it then leaves both levels.
     *
     * @return true if a valid victim (different line) was displaced.
     */
    template <typename F>
    bool
    fill(Addr line_addr, LineState state, const uint8_t *data,
         F &&on_victim)
    {
        L2Set &set = sets[l2Index(line_addr)];
        bool displaced = set.valid() && set.addr != line_addr;
        if (displaced) {
            on_victim(std::as_const(set));
            l1Evict(set.addr); // inclusion
        }
        install(set, line_addr, state, data);
        return displaced;
    }

    /** Drop @p a from both levels (invalidation). No writeback. */
    void invalidate(Addr a);

    /**
     * Invalidate everything (the paper flushes caches between runs).
     * Each Dirty line goes to @p on_dirty(const L2Set &) first,
     * in ascending set order. Sets keep their line storage.
     */
    template <typename F>
    void
    flushAll(F &&on_dirty)
    {
        for (L2Set &set : sets) {
            if (set.state == LineState::Dirty)
                on_dirty(std::as_const(set));
            set.addr = invalidAddr;
            set.state = LineState::Invalid;
        }
        l1Tags.assign(l1Tags.size(), invalidAddr);
    }

    /** Visit every valid L2 line in ascending set order. */
    template <typename F>
    void
    forEachLine(F &&f) const
    {
        for (const L2Set &set : sets) {
            if (set.valid())
                f(set);
        }
    }

    /** Read a word out of a present line. */
    uint64_t readWord(Addr a, uint32_t size) const;

    /** Write a word into a present line (caller manages state). */
    void writeWord(Addr a, uint32_t size, uint64_t value);

    /** Read a word out of an already-resolved line. */
    static uint64_t
    readWordIn(const L2Set &line, Addr a, uint32_t size)
    {
        // The workloads' 4- and 8-byte elements get copies of
        // constant size, which compile to one move each instead of
        // a libc call.
        const uint8_t *p = line.data + (a - line.addr);
        uint64_t value = 0;
        if (size == 4)
            std::memcpy(&value, p, 4);
        else if (size == 8)
            std::memcpy(&value, p, 8);
        else
            std::memcpy(&value, p, size);
        return value;
    }

    /** Write a word into an already-resolved line. */
    static void
    writeWordIn(L2Set &line, Addr a, uint32_t size, uint64_t value)
    {
        uint8_t *p = line.data + (a - line.addr);
        if (size == 4)
            std::memcpy(p, &value, 4);
        else if (size == 8)
            std::memcpy(p, &value, 8);
        else
            std::memcpy(p, &value, size);
    }

  private:
    /**
     * Lines per storage chunk. Small chunks keep resident bytes
     * proportional to the sets filled: one uninitialised block per
     * node does not, because the allocator hands back heap pages a
     * previous machine already made resident.
     */
    static constexpr uint32_t chunkLines = 64;

    /** Make @p set hold @p line_addr, giving it storage if it has none. */
    void install(L2Set &set, Addr line_addr, LineState state,
                 const uint8_t *data);

    uint32_t _lineBytes;
    uint32_t _lineShift;
    uint64_t _l2Mask;
    uint64_t _l1Mask;
    std::vector<L2Set> sets;
    /** Line storage; sets take lines from the last chunk in turn. */
    std::vector<std::unique_ptr<uint8_t[]>> chunks;
    uint64_t stored = 0;
    /** L1 filter: line-aligned address or invalidAddr, per set. */
    std::vector<Addr> l1Tags;
};

} // namespace specrt

#endif // SPECRT_MEM_CACHE_HH
