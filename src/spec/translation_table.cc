#include "spec/translation_table.hh"

#include "sim/logging.hh"

namespace specrt
{

void
TranslationTable::add(const Region &region, TestRange r)
{
    int id = mem.idOf(region.base);
    SPECRT_ASSERT(id >= 0 && mem.region(id).base == region.base &&
                  mem.region(id).bytes == region.bytes,
                  "test range '%s' is not one region of the address map",
                  region.name.c_str());
    if (rangeOf.size() <= static_cast<size_t>(id))
        rangeOf.resize(id + 1, -1);
    SPECRT_ASSERT(rangeOf[id] < 0, "region '%s' registered twice",
                  region.name.c_str());

    r.base = region.base;
    r.end = region.base + region.bytes;
    r.elemBytes = region.elemBytes;
    uint32_t elems =
        static_cast<uint32_t>((r.end - r.base) / r.elemBytes);
    uint32_t padded =
        (elems + slotAlign - 1) / slotAlign * slotAlign;
    r.elemOffset = totalSlots;
    totalSlots += padded;

    rangeOf[id] = static_cast<int32_t>(ranges.size());
    ranges.push_back(r);
}

void
TranslationTable::addNonPriv(const Region &region)
{
    TestRange r;
    r.type = TestType::NonPriv;
    add(region, r);
}

void
TranslationTable::addPriv(const Region &shared,
                          const std::vector<const Region *> &copies)
{
    TestRange s;
    s.type = TestType::Priv;
    s.role = PrivRole::SharedArray;
    add(shared, s);

    for (size_t p = 0; p < copies.size(); ++p) {
        const Region *c = copies[p];
        SPECRT_ASSERT(c && c->bytes == shared.bytes &&
                      c->elemBytes == shared.elemBytes,
                      "private copy %zu does not mirror shared array "
                      "'%s'", p, shared.name.c_str());
        TestRange r;
        r.type = TestType::Priv;
        r.role = PrivRole::PrivateCopy;
        r.sharedBase = shared.base;
        r.owner = static_cast<NodeId>(p);
        add(*c, r);
    }
}

} // namespace specrt
