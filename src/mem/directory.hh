/**
 * @file
 * Full-map directory state for the lines homed at one node.
 *
 * Entries are materialized lazily: a line never referenced behaves as
 * Uncached. Up to 64 nodes are supported (one presence bit each),
 * which comfortably covers the paper's 16-processor machine.
 *
 * Storage is a paged table indexed by line id (addr >> log2(line)),
 * mirroring the flat SRAM tables of the modeled hardware: entries
 * for consecutive lines share cache lines and every protocol action
 * is an index, not a hash probe. A table page holds one placement
 * page of lines (pageBytes / lineBytes), so under round-robin
 * placement a home materializes only the pages homed at it: its
 * entries stay proportional to the lines it homes, plus a page
 * pointer and a touched word per page of the footprint. Line ids
 * stay below 2^24 (1 GiB of 64-byte lines), since the address map
 * hands out pages upward from page 1.
 */

#ifndef SPECRT_MEM_DIRECTORY_HH
#define SPECRT_MEM_DIRECTORY_HH

#include <cstddef>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/paged_table.hh"
#include "sim/types.hh"

namespace specrt
{

/** Directory-visible state of a line. */
enum class DirState : uint8_t
{
    Uncached,
    Shared,
    Dirty,
};

const char *dirStateName(DirState s);

/** Directory entry for one line. */
struct DirEntry
{
    DirState state = DirState::Uncached;
    /** Presence bits (valid when Shared). */
    uint64_t sharers = 0;
    /** Owner (valid when Dirty). */
    NodeId owner = invalidNode;

    bool isSharer(NodeId n) const { return sharers & (uint64_t(1) << n); }
    void addSharer(NodeId n) { sharers |= uint64_t(1) << n; }
    int numSharers() const { return __builtin_popcountll(sharers); }
};

/** The directory array of one home node. */
class Directory
{
  public:
    /** A page holds whole lines (MachineConfig::validate()). */
    explicit Directory(uint32_t line_bytes = 64,
                       uint32_t page_bytes = 4096)
        : dense(page_bytes / line_bytes)
    {
        lineShift = 0;
        while ((uint64_t(1) << lineShift) < line_bytes)
            ++lineShift;
    }

    /** Entry for @p line_addr, creating an Uncached one on demand. */
    DirEntry &
    entry(Addr line_addr)
    {
        return dense.at(lineId(line_addr));
    }

    /** Entry if it exists, else nullptr (const inspection). */
    const DirEntry *
    find(Addr line_addr) const
    {
        return dense.find(lineId(line_addr));
    }

    /** Drop all entries (machine reset between runs). */
    void clear() { dense.clear(); }

    size_t numEntries() const { return dense.size(); }

    /** Visit every materialized (line, entry) pair. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        dense.forEach([&](size_t id, const DirEntry &e) {
            f(static_cast<Addr>(id) << lineShift, e);
        });
    }

    /** f(Addr first_line) for every materialized table page. */
    template <typename F>
    void
    forEachPage(F &&f) const
    {
        dense.forEachPage(
            [&](size_t id) { f(static_cast<Addr>(id) << lineShift); });
    }

  private:
    /** Line ids at or past this are outside any modeled footprint. */
    static constexpr uint64_t lineLimit = uint64_t(1) << 24;

    uint64_t
    lineId(Addr line_addr) const
    {
        uint64_t id = line_addr >> lineShift;
        SPECRT_ASSERT(id < lineLimit, "line %#llx past the directory",
                      (unsigned long long)line_addr);
        return id;
    }

    uint32_t lineShift;
    PagedTable<DirEntry> dense;
};

} // namespace specrt

#endif // SPECRT_MEM_DIRECTORY_HH
