/**
 * @file
 * A P3m-shaped address space for the address-decode tests
 * (test_addr_map.cc, test_spec_unit.cc).
 *
 * Sixteen processors; two privatized arrays, each a shared region
 * plus one private copy per processor; one non-privatized array under
 * test; and plain regions. Region sizes are not page multiples, so
 * every region leaves pad bytes before its last page ends. Elements
 * are 4 or 8 bytes, and placements are both Fixed and RoundRobin.
 * Header-only and test-only.
 */

#ifndef SPECRT_TESTS_SUPPORT_P3M_LAYOUT_HH
#define SPECRT_TESTS_SUPPORT_P3M_LAYOUT_HH

#include <string>
#include <vector>

#include "mem/addr_map.hh"
#include "sim/random.hh"

namespace specrt::test_support
{

constexpr int p3mProcs = 16;

struct P3mLayout
{
    /** The privatized arrays' shared regions. */
    std::vector<const Region *> privShared;
    /** Their private copies: privCopies[array][processor]. */
    std::vector<std::vector<const Region *>> privCopies;
    /** The non-privatized array under test. */
    const Region *nonPriv = nullptr;
};

/** Allocate the layout in @p mem (built for p3mProcs nodes). */
inline P3mLayout
allocP3mLayout(AddrMap &mem)
{
    auto alloc = [&](const std::string &name, uint64_t elems,
                     uint32_t elem_bytes, Placement pl, NodeId node) {
        return &mem.region(
            mem.alloc(name, elems * elem_bytes, elem_bytes, pl, node));
    };
    P3mLayout l;
    alloc("pos", 5000, 4, Placement::RoundRobin, 3);
    struct Ws
    {
        const char *name;
        uint64_t elems;
        uint32_t elemBytes;
    };
    for (const Ws &w : {Ws{"force_ws", 1000, 4}, Ws{"phi_ws", 700, 8}}) {
        l.privShared.push_back(alloc(w.name, w.elems, w.elemBytes,
                                     Placement::RoundRobin, 0));
        auto &copies = l.privCopies.emplace_back();
        for (NodeId p = 0; p < p3mProcs; ++p)
            copies.push_back(alloc(std::string(w.name) + "_priv" +
                                       std::to_string(p),
                                   w.elems, w.elemBytes,
                                   Placement::Fixed, p));
    }
    l.nonPriv = alloc("grid", 3000, 4, Placement::RoundRobin, 5);
    alloc("grid_bak", 3000, 4, Placement::Fixed, 9);
    alloc("accel", 129, 8, Placement::Fixed, 7);
    return l;
}

/**
 * Addresses to decode: 0, invalidAddr, each region's base, last
 * byte, first pad byte and the last byte of its last page, then
 * fixed-seed random addresses over the mapped span and four pages
 * past it.
 */
inline std::vector<Addr>
decodeProbes(const AddrMap &mem)
{
    const Addr page = mem.pageBytes();
    std::vector<Addr> probes = {0, invalidAddr};
    Addr top = page;
    for (size_t i = 0; i < mem.numRegions(); ++i) {
        const Region &r = mem.region(static_cast<int>(i));
        Addr page_end = (r.base + r.bytes + page - 1) & ~(page - 1);
        probes.insert(probes.end(), {r.base, r.base + r.bytes - 1,
                                     r.base + r.bytes, page_end - 1});
        top = page_end;
    }
    Rng rng(7);
    for (int i = 0; i < 20000; ++i)
        probes.push_back(rng.nextBounded(top + 4 * page));
    return probes;
}

} // namespace specrt::test_support

#endif // SPECRT_TESTS_SUPPORT_P3M_LAYOUT_HH
