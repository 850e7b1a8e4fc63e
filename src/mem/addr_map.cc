#include "mem/addr_map.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace specrt
{

AddrMap::AddrMap(const MachineConfig &config)
    : _pageBytes(config.pageBytes),
      pageShift(static_cast<uint32_t>(std::countr_zero(config.pageBytes))),
      _numProcs(config.numProcs),
      nextBase(config.pageBytes) // leave page 0 unmapped
{
}

int
AddrMap::alloc(const std::string &name, uint64_t bytes,
               uint32_t elem_bytes, Placement placement, NodeId node)
{
    SPECRT_ASSERT(bytes > 0, "empty region '%s'", name.c_str());
    SPECRT_ASSERT(elem_bytes > 0 && elem_bytes <= 8,
                  "bad element width %u", elem_bytes);
    SPECRT_ASSERT(node >= 0 && node < _numProcs,
                  "bad node %d for region '%s'", node, name.c_str());

    uint64_t rounded = (bytes + _pageBytes - 1) & ~uint64_t(_pageBytes - 1);

    Region r;
    r.name = name;
    r.base = nextBase;
    r.bytes = bytes;
    r.elemBytes = elem_bytes;
    r.elems = bytes / elem_bytes;
    r.placement = placement;
    r.node = node;
    nextBase += rounded;

    int id = static_cast<int>(regions.size());
    const Region &region = regions.emplace_back(std::move(r));
    std::vector<uint8_t> &store = backing.emplace_back(rounded, 0);
    pages.resize(region.base >> pageShift); // page 0 on the first alloc
    for (uint64_t p = 0; p < rounded >> pageShift; ++p) {
        NodeId home = placement == Placement::Fixed
                          ? node
                          : static_cast<NodeId>((node + p) % _numProcs);
        pages.push_back({&region, store.data() + (p << pageShift),
                         region.base + region.bytes, id, home});
    }
    return id;
}

void
AddrMap::clear()
{
    regions.clear();
    backing.clear();
    pages.clear();
    nextBase = _pageBytes;
}

uint8_t *
AddrMap::backingPtr(Addr addr, uint32_t span) const
{
    const Page *pg = pageOf(addr);
    SPECRT_ASSERT(pg, "access to unmapped addr %#llx",
                  (unsigned long long)addr);
    // The backing store ends at the region's last page end.
    Addr page_end = (pg->end + _pageBytes - 1) & ~Addr(_pageBytes - 1);
    SPECRT_ASSERT(addr + span <= page_end,
                  "access past end of region '%s'",
                  pg->region->name.c_str());
    return pg->bytes + (addr & (_pageBytes - 1));
}

uint64_t
AddrMap::read(Addr addr, uint32_t size) const
{
    SPECRT_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    uint64_t value = 0;
    std::memcpy(&value, backingPtr(addr, size), size);
    return value;
}

void
AddrMap::write(Addr addr, uint32_t size, uint64_t value)
{
    SPECRT_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    std::memcpy(backingPtr(addr, size), &value, size);
}

void
AddrMap::readLine(Addr line_addr, uint8_t *out, uint32_t bytes) const
{
    std::memcpy(out, backingPtr(line_addr, bytes), bytes);
}

void
AddrMap::writeLine(Addr line_addr, const uint8_t *data, uint32_t bytes)
{
    std::memcpy(backingPtr(line_addr, bytes), data, bytes);
}

void
AddrMap::copyBytes(Addr src, Addr dst, uint64_t bytes)
{
    if (bytes == 0)
        return;
    const uint8_t *s = backingPtr(src, static_cast<uint32_t>(
        std::min<uint64_t>(bytes, 1)));
    uint8_t *d = backingPtr(dst, static_cast<uint32_t>(
        std::min<uint64_t>(bytes, 1)));
    // Validate the far ends too, then copy in one shot.
    backingPtr(src + bytes - 1, 1);
    backingPtr(dst + bytes - 1, 1);
    std::memcpy(d, s, bytes);
}

} // namespace specrt
