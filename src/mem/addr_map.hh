/**
 * @file
 * Global physical address space of the modeled CC-NUMA machine.
 *
 * Memory is allocated in named, page-aligned regions. A region is
 * either distributed round-robin across the nodes' memory modules at
 * page granularity (the paper's placement for shared workload data)
 * or pinned to a single node (private per-processor data, serial
 * runs). The AddrMap also owns the backing store: simulated memory
 * really holds bytes so data values flow through the machine.
 */

#ifndef SPECRT_MEM_ADDR_MAP_HH
#define SPECRT_MEM_ADDR_MAP_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace specrt
{

/** How a region's pages are assigned to nodes. */
enum class Placement
{
    /** Page p of the region lives on node (firstNode + p) % numProcs. */
    RoundRobin,
    /** All pages live on one fixed node. */
    Fixed,
};

/** One named, page-aligned allocation. */
struct Region
{
    std::string name;
    Addr base = invalidAddr;
    uint64_t bytes = 0;
    /** Element width in bytes (4 or 8 for the paper's workloads). */
    uint32_t elemBytes = 4;
    Placement placement = Placement::RoundRobin;
    /** Home node for Fixed placement; first node for RoundRobin. */
    NodeId node = 0;

    /** bytes / elemBytes, cached: the bounds check in the processor's
     *  address resolution runs once per simulated memory op. */
    uint64_t elems = 0;

    uint64_t numElems() const { return elems; }
    Addr elemAddr(uint64_t i) const { return base + i * elemBytes; }

    bool
    contains(Addr a) const
    {
        return a >= base && a < base + bytes;
    }
};

/**
 * The global address space plus its backing store.
 *
 * Every address decodes through one page table: entry p describes
 * page p of the address space (the region on it, its id, its home
 * node and where its bytes live), so find(), homeOf() and every
 * backing access cost one vector index. Page 0 stays unmapped, and
 * so do the pad bytes between a region's end and its page end.
 *
 * Thread-unsafe by design: the simulator is single-threaded.
 */
class AddrMap
{
  public:
    AddrMap(const MachineConfig &config);

    /**
     * Allocate a region. Returns the region id (index).
     *
     * @param name      human-readable name (diagnostics)
     * @param bytes     region size; rounded up to a whole page
     * @param elem_bytes element width (must divide the line size)
     * @param placement page placement policy
     * @param node      Fixed home / RoundRobin first node
     */
    int alloc(const std::string &name, uint64_t bytes,
              uint32_t elem_bytes, Placement placement,
              NodeId node = 0);

    /** Free all regions (new program run). */
    void clear();

    /** Region count. */
    size_t numRegions() const { return regions.size(); }

    const Region &region(int id) const { return regions.at(id); }

    /** Id of the region containing @p addr, or -1. */
    int
    idOf(Addr addr) const
    {
        const Page *pg = pageOf(addr);
        return pg ? pg->id : -1;
    }

    /** Find the region containing @p addr, or nullptr. */
    const Region *
    find(Addr addr) const
    {
        const Page *pg = pageOf(addr);
        return pg ? pg->region : nullptr;
    }

    /** Home node of @p addr per its region's placement policy. */
    NodeId
    homeOf(Addr addr) const
    {
        const Page *pg = pageOf(addr);
        SPECRT_ASSERT(pg, "homeOf(unmapped addr %#llx)",
                      (unsigned long long)addr);
        return pg->home;
    }

    /**
     * Read a naturally-aligned word of @p size bytes (1..8) straight
     * from the backing store (no coherence; used by directories and
     * by test oracles).
     */
    uint64_t read(Addr addr, uint32_t size) const;

    /** Write a word straight to the backing store. */
    void write(Addr addr, uint32_t size, uint64_t value);

    /** Copy a whole line out of the backing store. */
    void readLine(Addr line_addr, uint8_t *out, uint32_t bytes) const;

    /**
     * The backing bytes of a whole line, in place, for a reply to
     * copy into its payload in one pass.
     */
    const uint8_t *
    lineData(Addr line_addr, uint32_t bytes) const
    {
        return backingPtr(line_addr, bytes);
    }

    /** Copy a whole line into the backing store. */
    void writeLine(Addr line_addr, const uint8_t *data, uint32_t bytes);

    /**
     * Bulk copy between two mapped ranges of equal layout (e.g.\
     * initializing a private copy from its shared array). Both
     * ranges must lie within single regions.
     */
    void copyBytes(Addr src, Addr dst, uint64_t bytes);

    uint32_t pageBytes() const { return _pageBytes; }
    int numProcs() const { return _numProcs; }

  private:
    /** One page-table entry. An unmapped page keeps end 0, so no
     *  address decodes to it. */
    struct Page
    {
        const Region *region = nullptr;
        /** The backing bytes of this page. */
        uint8_t *bytes = nullptr;
        /** region->base + region->bytes: the page's bytes from here
         *  to the page end are pad, not part of the region. */
        Addr end = 0;
        int id = -1;
        NodeId home = invalidNode;
    };

    /** The entry of @p addr's page, or nullptr if no region holds
     *  @p addr. A region's base is page-aligned, so every address on
     *  one of its pages is at or above the base. */
    const Page *
    pageOf(Addr addr) const
    {
        uint64_t p = addr >> pageShift;
        if (p >= pages.size() || addr >= pages[p].end)
            return nullptr;
        return &pages[p];
    }

    /** Locate the backing byte for @p addr; panics if unmapped. */
    uint8_t *backingPtr(Addr addr, uint32_t span) const;

    // Deques keep Region pointers and backing buffers stable across
    // alloc() calls; the page table points into both.
    std::deque<Region> regions;
    std::deque<std::vector<uint8_t>> backing;
    /** Indexed by addr >> pageShift, from address 0. */
    std::vector<Page> pages;

    uint32_t _pageBytes;
    uint32_t pageShift;
    int _numProcs;
    /** Next free page-aligned address. Starts above nullptr guard. */
    Addr nextBase;
};

} // namespace specrt

#endif // SPECRT_MEM_ADDR_MAP_HH
