/** @file Unit tests for the global address space / backing store. */

#include <gtest/gtest.h>

#include <cstring>

#include "mem/addr_map.hh"
#include "sim/logging.hh"
#include "support/p3m_layout.hh"

using namespace specrt;

namespace
{

MachineConfig
smallCfg()
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    return cfg;
}

} // namespace

TEST(AddrMap, AllocationsArePageAlignedAndDisjoint)
{
    MachineConfig cfg = smallCfg();
    AddrMap mem(cfg);
    int a = mem.alloc("a", 100, 4, Placement::RoundRobin);
    int b = mem.alloc("b", 5000, 4, Placement::RoundRobin);
    const Region &ra = mem.region(a);
    const Region &rb = mem.region(b);
    EXPECT_EQ(ra.base % cfg.pageBytes, 0u);
    EXPECT_EQ(rb.base % cfg.pageBytes, 0u);
    EXPECT_GE(rb.base, ra.base + cfg.pageBytes); // 100B -> 1 page
    EXPECT_GE(rb.base + rb.bytes, rb.base);
}

TEST(AddrMap, FindLocatesRegions)
{
    AddrMap mem(smallCfg());
    int a = mem.alloc("a", 4096, 4, Placement::RoundRobin);
    int b = mem.alloc("b", 4096, 8, Placement::Fixed, 2);
    const Region &ra = mem.region(a);
    const Region &rb = mem.region(b);
    EXPECT_EQ(mem.find(ra.base), &ra);
    EXPECT_EQ(mem.find(ra.base + 4095), &ra);
    EXPECT_EQ(mem.find(rb.base + 1), &rb);
    EXPECT_EQ(mem.find(rb.base + rb.bytes), nullptr);
    EXPECT_EQ(mem.find(0), nullptr);

    // A P3m-shaped space: find() and homeOf() agree with a linear
    // scan and the placement rule on every probe, pads included.
    MachineConfig cfg;
    cfg.numProcs = test_support::p3mProcs;
    AddrMap big(cfg);
    test_support::allocP3mLayout(big);
    std::vector<Addr> probes = test_support::decodeProbes(big);
    for (Addr a : probes) {
        const Region *want = nullptr;
        for (size_t i = 0; i < big.numRegions(); ++i) {
            if (big.region(static_cast<int>(i)).contains(a))
                want = &big.region(static_cast<int>(i));
        }
        ASSERT_EQ(big.find(a), want) << "addr " << a;
        if (!want)
            continue;
        uint64_t page = (a - want->base) / cfg.pageBytes;
        NodeId home = want->placement == Placement::Fixed
                          ? want->node
                          : static_cast<NodeId>((want->node + page) %
                                                cfg.numProcs);
        ASSERT_EQ(big.homeOf(a), home) << "addr " << a;
    }
    big.clear();
    for (Addr a : probes)
        ASSERT_EQ(big.find(a), nullptr) << "addr " << a;
}

TEST(AddrMap, RoundRobinHomesCyclePages)
{
    MachineConfig cfg = smallCfg();
    AddrMap mem(cfg);
    int a = mem.alloc("a", 8 * cfg.pageBytes, 4, Placement::RoundRobin);
    const Region &r = mem.region(a);
    for (int page = 0; page < 8; ++page) {
        Addr addr = r.base + page * cfg.pageBytes + 16;
        EXPECT_EQ(mem.homeOf(addr), page % cfg.numProcs);
    }
}

TEST(AddrMap, RoundRobinFirstNodeOffsets)
{
    MachineConfig cfg = smallCfg();
    AddrMap mem(cfg);
    int a = mem.alloc("a", 4 * cfg.pageBytes, 4, Placement::RoundRobin,
                      2);
    const Region &r = mem.region(a);
    EXPECT_EQ(mem.homeOf(r.base), 2);
    EXPECT_EQ(mem.homeOf(r.base + cfg.pageBytes), 3);
    EXPECT_EQ(mem.homeOf(r.base + 2 * cfg.pageBytes), 0);
}

TEST(AddrMap, FixedHomesStayPut)
{
    MachineConfig cfg = smallCfg();
    AddrMap mem(cfg);
    int a = mem.alloc("a", 10 * cfg.pageBytes, 8, Placement::Fixed, 3);
    const Region &r = mem.region(a);
    for (uint64_t off = 0; off < r.bytes; off += cfg.pageBytes)
        EXPECT_EQ(mem.homeOf(r.base + off), 3);
}

TEST(AddrMap, ReadWriteRoundTrip)
{
    AddrMap mem(smallCfg());
    int a = mem.alloc("a", 4096, 4, Placement::RoundRobin);
    const Region &r = mem.region(a);
    mem.write(r.elemAddr(10), 4, 0xdeadbeef);
    EXPECT_EQ(mem.read(r.elemAddr(10), 4), 0xdeadbeefu);
    mem.write(r.elemAddr(11), 4, 0x11223344);
    EXPECT_EQ(mem.read(r.elemAddr(10), 4), 0xdeadbeefu);

    int b = mem.alloc("b", 4096, 8, Placement::RoundRobin);
    const Region &rb = mem.region(b);
    mem.write(rb.elemAddr(5), 8, 0x0123456789abcdefULL);
    EXPECT_EQ(mem.read(rb.elemAddr(5), 8), 0x0123456789abcdefULL);
}

TEST(AddrMap, FreshMemoryIsZero)
{
    AddrMap mem(smallCfg());
    int a = mem.alloc("a", 4096, 4, Placement::RoundRobin);
    const Region &r = mem.region(a);
    for (uint64_t e = 0; e < 16; ++e)
        EXPECT_EQ(mem.read(r.elemAddr(e), 4), 0u);
}

TEST(AddrMap, LineReadWrite)
{
    AddrMap mem(smallCfg());
    int a = mem.alloc("a", 4096, 4, Placement::RoundRobin);
    const Region &r = mem.region(a);
    uint8_t line[64];
    for (int i = 0; i < 64; ++i)
        line[i] = static_cast<uint8_t>(i * 3);
    mem.writeLine(r.base + 64, line, 64);
    uint8_t out[64] = {};
    mem.readLine(r.base + 64, out, 64);
    EXPECT_EQ(std::memcmp(line, out, 64), 0);
    // Word view agrees with byte view.
    EXPECT_EQ(mem.read(r.base + 64, 1), line[0]);
}

TEST(AddrMap, CopyBytesBetweenRegions)
{
    AddrMap mem(smallCfg());
    int a = mem.alloc("a", 1024, 4, Placement::RoundRobin);
    int b = mem.alloc("b", 1024, 4, Placement::Fixed, 1);
    const Region &ra = mem.region(a);
    const Region &rb = mem.region(b);
    for (uint64_t e = 0; e < 256; ++e)
        mem.write(ra.elemAddr(e), 4, e * 7);
    mem.copyBytes(ra.base, rb.base, 1024);
    for (uint64_t e = 0; e < 256; ++e)
        EXPECT_EQ(mem.read(rb.elemAddr(e), 4), e * 7);
}

TEST(AddrMap, RegionPointersSurviveMoreAllocs)
{
    AddrMap mem(smallCfg());
    const Region *first = &mem.region(mem.alloc(
        "r0", 4096, 4, Placement::RoundRobin));
    Addr base = first->base;
    for (int i = 1; i < 200; ++i) {
        std::string name = "r";
        name += std::to_string(i);
        mem.alloc(name, 4096, 4, Placement::RoundRobin);
    }
    EXPECT_EQ(first->base, base);
    EXPECT_EQ(first->name, "r0");
}

TEST(AddrMap, ClearForgetsEverything)
{
    AddrMap mem(smallCfg());
    mem.alloc("a", 4096, 4, Placement::RoundRobin);
    mem.clear();
    EXPECT_EQ(mem.numRegions(), 0u);
    int a = mem.alloc("a2", 4096, 4, Placement::RoundRobin);
    EXPECT_EQ(mem.region(a).name, "a2");
}
