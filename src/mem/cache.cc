#include "mem/cache.hh"

#include <cstring>

#include "sim/logging.hh"

namespace specrt
{

const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid: return "Invalid";
      case LineState::Shared:  return "Shared";
      case LineState::Dirty:   return "Dirty";
    }
    return "Unknown";
}

NodeCache::NodeCache(const MachineConfig &config)
    : _lineBytes(config.l2.lineBytes)
{
    // Geometry is power-of-two (config.validate()); indexing relies
    // on it.
    SPECRT_ASSERT((_lineBytes & (_lineBytes - 1)) == 0,
                  "line size %u not a power of two", _lineBytes);
    _lineShift = 0;
    while ((1u << _lineShift) < _lineBytes)
        ++_lineShift;
    uint64_t l2Lines = config.l2.numLines();
    uint64_t l1Lines = config.l1.numLines();
    SPECRT_ASSERT((l2Lines & (l2Lines - 1)) == 0 &&
                  (l1Lines & (l1Lines - 1)) == 0,
                  "cache line counts not powers of two");
    _l2Mask = l2Lines - 1;
    _l1Mask = l1Lines - 1;
    sets.resize(l2Lines);
    l1Tags.assign(l1Lines, invalidAddr);
}

bool
NodeCache::l1Hit(Addr a) const
{
    return l1TagHit(a) && findLine(a) != nullptr;
}

void
NodeCache::l1Fill(Addr a)
{
    l1Tags[l1Index(a)] = lineAlign(a);
}

void
NodeCache::l1Evict(Addr a)
{
    if (l1Tags[l1Index(a)] == lineAlign(a))
        l1Tags[l1Index(a)] = invalidAddr;
}

void
NodeCache::install(L2Set &set, Addr line_addr, LineState state,
                   const uint8_t *data)
{
    SPECRT_ASSERT(line_addr == lineAlign(line_addr),
                  "fill with unaligned addr");
    if (!set.data) {
        uint64_t slot = stored++ % chunkLines;
        if (slot == 0) {
            chunks.push_back(std::make_unique_for_overwrite<uint8_t[]>(
                size_t(chunkLines) * _lineBytes));
        }
        set.data = chunks.back().get() + slot * _lineBytes;
    }
    set.addr = line_addr;
    set.state = state;
    std::memcpy(set.data, data, _lineBytes);
    l1Fill(line_addr);
}

void
NodeCache::invalidate(Addr a)
{
    if (L2Set *line = findLine(a)) {
        line->addr = invalidAddr;
        line->state = LineState::Invalid;
    }
    l1Evict(a);
}

uint64_t
NodeCache::readWord(Addr a, uint32_t size) const
{
    const L2Set *line = findLine(a);
    SPECRT_ASSERT(line, "readWord on absent line %#llx",
                  (unsigned long long)a);
    return readWordIn(*line, a, size);
}

void
NodeCache::writeWord(Addr a, uint32_t size, uint64_t value)
{
    L2Set *line = findLine(a);
    SPECRT_ASSERT(line, "writeWord on absent line %#llx",
                  (unsigned long long)a);
    writeWordIn(*line, a, size, value);
}

} // namespace specrt
