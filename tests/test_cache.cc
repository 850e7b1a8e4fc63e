/** @file Unit tests for the two-level cache arrays. */

#include <gtest/gtest.h>

#include <vector>

#include "mem/cache.hh"

using namespace specrt;

namespace
{

/** 16 L1 sets and 64 L2 sets of @p line_bytes-byte lines. */
MachineConfig
tinyCfg(uint32_t line_bytes = 64)
{
    MachineConfig cfg;
    cfg.l1 = {16 * line_bytes, line_bytes};
    cfg.l2 = {64 * line_bytes, line_bytes};
    return cfg;
}

std::vector<uint8_t>
pattern(uint8_t seed, uint32_t bytes = 64)
{
    std::vector<uint8_t> data(bytes);
    for (uint32_t i = 0; i < bytes; ++i)
        data[i] = static_cast<uint8_t>(seed + i);
    return data;
}

/** A line handed out by fill() or flushAll(), copied while intact. */
struct Copied
{
    Addr addr = invalidAddr;
    LineState state = LineState::Invalid;
    std::vector<uint8_t> data;
};

Copied
copy(const NodeCache &cache, const L2Set &line)
{
    return {line.addr, line.state,
            std::vector<uint8_t>(line.data, line.data + cache.lineBytes())};
}

/** Fill @p line with @p data; a displaced line lands in @p victim. */
bool
fill(NodeCache &cache, Addr line, LineState state,
     const std::vector<uint8_t> &data, Copied *victim = nullptr)
{
    return cache.fill(line, state, data.data(),
                      [&](const L2Set &v) {
                          if (victim)
                              *victim = copy(cache, v);
                      });
}

/** Flush @p cache; the Dirty lines it hands out, in order. */
std::vector<Copied>
flush(NodeCache &cache)
{
    std::vector<Copied> dirty;
    cache.flushAll(
        [&](const L2Set &line) { dirty.push_back(copy(cache, line)); });
    return dirty;
}

/** The bytes of the present line holding @p a. */
std::vector<uint8_t>
lineData(const NodeCache &cache, Addr a)
{
    const L2Set *line = cache.findLine(a);
    if (!line)
        return {};
    return copy(cache, *line).data;
}

} // namespace

TEST(NodeCache, IndexingWrapsBySetCount)
{
    NodeCache cache(tinyCfg());
    EXPECT_EQ(cache.numL2Lines(), 64u);
    EXPECT_EQ(cache.l2Index(0), cache.l2Index(64 * 64));
    EXPECT_NE(cache.l2Index(0), cache.l2Index(64));
    EXPECT_EQ(cache.lineAlign(0x12345), 0x12340u);
}

TEST(NodeCache, FillThenFind)
{
    NodeCache cache(tinyCfg());
    auto data = pattern(1);
    EXPECT_FALSE(fill(cache, 0x1000, LineState::Shared, data));
    const L2Set *line = cache.findLine(0x1010);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, LineState::Shared);
    EXPECT_TRUE(cache.l1Hit(0x1010));
}

TEST(NodeCache, ConflictEvictsVictim)
{
    NodeCache cache(tinyCfg());
    auto d1 = pattern(1);
    auto d2 = pattern(2);
    Copied victim;
    fill(cache, 0x0, LineState::Dirty, d1);
    // Same L2 set: stride = 64 lines * 64 bytes.
    EXPECT_TRUE(fill(cache, 64 * 64, LineState::Shared, d2, &victim));
    EXPECT_EQ(victim.addr, 0u);
    EXPECT_EQ(victim.state, LineState::Dirty);
    EXPECT_EQ(victim.data[0], d1[0]);
    EXPECT_EQ(cache.findLine(0x0), nullptr);
    EXPECT_FALSE(cache.l1Hit(0x0)); // inclusion: L1 dropped too
}

TEST(NodeCache, WordReadWrite)
{
    NodeCache cache(tinyCfg());
    auto data = pattern(0);
    fill(cache, 0x2000, LineState::Dirty, data);
    cache.writeWord(0x2008, 4, 0xaabbccdd);
    EXPECT_EQ(cache.readWord(0x2008, 4), 0xaabbccddu);
    // Neighbouring words untouched.
    EXPECT_EQ(cache.readWord(0x200c, 1), data[12]);
}

TEST(NodeCache, InvalidateDropsBothLevels)
{
    NodeCache cache(tinyCfg());
    auto data = pattern(3);
    fill(cache, 0x3000, LineState::Shared, data);
    cache.invalidate(0x3000);
    EXPECT_EQ(cache.findLine(0x3000), nullptr);
    EXPECT_FALSE(cache.l1Hit(0x3000));
}

TEST(NodeCache, L1IsAFilterOverL2)
{
    NodeCache cache(tinyCfg());
    auto d1 = pattern(1);
    auto d2 = pattern(2);
    fill(cache, 0x0000, LineState::Shared, d1);
    // L1 has 16 sets; 16 lines later maps to the same L1 set but a
    // different L2 set.
    fill(cache, 16 * 64, LineState::Shared, d2);
    EXPECT_FALSE(cache.l1Hit(0x0000));      // displaced from L1...
    EXPECT_NE(cache.findLine(0x0000), nullptr); // ...but still in L2
    cache.l1Fill(0x0000);
    EXPECT_TRUE(cache.l1Hit(0x0000));
}

TEST(NodeCache, FlushCollectsDirtyVictims)
{
    NodeCache cache(tinyCfg());
    auto d = pattern(9);
    // Adjacent lines: different L2 sets, both resident.
    fill(cache, 0x1000, LineState::Dirty, d);
    fill(cache, 0x1040, LineState::Shared, d);
    std::vector<Copied> victims = flush(cache);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].addr, 0x1000u);
    EXPECT_EQ(cache.findLine(0x1000), nullptr);
    EXPECT_EQ(cache.findLine(0x1040), nullptr);
}

TEST(NodeCache, RefillSameLineKeepsVictimOut)
{
    NodeCache cache(tinyCfg());
    auto d1 = pattern(1);
    auto d2 = pattern(2);
    fill(cache, 0x1000, LineState::Shared, d1);
    // Refill of the very same line must not report a victim.
    EXPECT_FALSE(fill(cache, 0x1000, LineState::Dirty, d2));
    EXPECT_EQ(cache.findLine(0x1000)->state, LineState::Dirty);
    EXPECT_EQ(cache.readWord(0x1000, 1), d2[0]);
}

TEST(NodeCache, LineStorageFollowsTheFilledSets)
{
    // The paper's L2: 8,192 sets of 64 bytes.
    NodeCache cache(MachineConfig{});
    ASSERT_EQ(cache.numL2Lines(), 8192u);
    EXPECT_EQ(cache.linesStored(), 0u);

    const Addr conflict = cache.numL2Lines() * cache.lineBytes();
    const Addr lines[] = {0x10000, 0x10040, 0x7fc0};
    auto d = pattern(4);
    for (Addr a : lines)
        fill(cache, a, LineState::Shared, d);
    EXPECT_EQ(cache.linesStored(), 3u);

    // Refills, conflicts, invalidations and flushes reuse the storage
    // of a set already filled.
    fill(cache, lines[0], LineState::Dirty, d);
    fill(cache, lines[1] + conflict, LineState::Dirty, d);
    cache.invalidate(lines[2]);
    fill(cache, lines[2], LineState::Shared, d);
    flush(cache);
    for (Addr a : lines)
        fill(cache, a + conflict, LineState::Shared, d);
    EXPECT_EQ(cache.linesStored(), 3u);

    fill(cache, 0x20000, LineState::Shared, d);
    EXPECT_EQ(cache.linesStored(), 4u);
}

// --- the same behaviour at other line sizes ----------------------------

class NodeCacheLines : public ::testing::TestWithParam<uint32_t>
{
  protected:
    uint32_t bytes() const { return GetParam(); }
    /** Line @p i of the address space (set i mod 64). */
    Addr line(uint64_t i) const { return 0x40000 + i * bytes(); }
    /** The line sharing @p i's L2 set under the next tag. */
    Addr conflictOf(uint64_t i) const { return line(i + 64); }

    NodeCache cache{tinyCfg(GetParam())};
};

TEST_P(NodeCacheLines, FillThenFind)
{
    auto d = pattern(5, bytes());
    EXPECT_FALSE(fill(cache, line(3), LineState::Shared, d));
    Addr last = line(3) + bytes() - 1;
    const L2Set *cl = cache.findLine(last);
    ASSERT_NE(cl, nullptr);
    EXPECT_EQ(cl->addr, line(3));
    EXPECT_EQ(cl->state, LineState::Shared);
    EXPECT_TRUE(cache.l1Hit(last));
    EXPECT_EQ(lineData(cache, line(3)), d);
    EXPECT_EQ(cache.findLine(line(4)), nullptr);
    EXPECT_EQ(cache.findLine(conflictOf(3)), nullptr);
}

TEST_P(NodeCacheLines, ConflictHandsOutTheVictimsData)
{
    auto d1 = pattern(1, bytes());
    auto d2 = pattern(2, bytes());
    fill(cache, line(7), LineState::Dirty, d1);
    cache.writeWord(line(7) + bytes() - 8, 8, 0x1122334455667788ull);
    std::vector<uint8_t> written = lineData(cache, line(7));

    Copied victim;
    EXPECT_TRUE(fill(cache, conflictOf(7), LineState::Shared, d2,
                     &victim));
    EXPECT_EQ(victim.addr, line(7));
    EXPECT_EQ(victim.state, LineState::Dirty);
    EXPECT_EQ(victim.data, written);
    EXPECT_EQ(cache.findLine(line(7)), nullptr);
    EXPECT_FALSE(cache.l1Hit(line(7)));
    EXPECT_EQ(lineData(cache, conflictOf(7)), d2);
}

TEST_P(NodeCacheLines, LastWordReadWrite)
{
    auto d = pattern(9, bytes());
    fill(cache, line(1), LineState::Dirty, d);
    Addr last8 = line(1) + bytes() - 8;
    Addr last4 = line(1) + bytes() - 4;
    cache.writeWord(last8, 4, 0xaabbccdd);
    cache.writeWord(last4, 4, 0x01020304);
    EXPECT_EQ(cache.readWord(last8, 4), 0xaabbccddu);
    EXPECT_EQ(cache.readWord(last4, 4), 0x01020304u);
    EXPECT_EQ(cache.readWord(last8, 8), 0x01020304aabbccddull);
    // The rest of the line is untouched.
    EXPECT_EQ(cache.readWord(line(1), 1), d[0]);
    EXPECT_EQ(cache.readWord(last8 - 1, 1), d[bytes() - 9]);
    // So is the next line's set.
    EXPECT_EQ(cache.findLine(line(2)), nullptr);
}

TEST_P(NodeCacheLines, InvalidateThenRefill)
{
    auto d1 = pattern(3, bytes());
    auto d2 = pattern(4, bytes());
    fill(cache, line(5), LineState::Shared, d1);
    cache.invalidate(line(5));
    EXPECT_EQ(cache.findLine(line(5)), nullptr);
    EXPECT_FALSE(cache.l1Hit(line(5)));

    // An invalid set holds no victim, whichever tag comes next.
    EXPECT_FALSE(fill(cache, conflictOf(5), LineState::Dirty, d2));
    EXPECT_EQ(lineData(cache, conflictOf(5)), d2);
    cache.invalidate(conflictOf(5));
    EXPECT_FALSE(fill(cache, line(5), LineState::Shared, d1));
    EXPECT_EQ(lineData(cache, line(5)), d1);
    EXPECT_EQ(cache.findLine(line(5))->state, LineState::Shared);
    EXPECT_EQ(cache.linesStored(), 1u);
}

TEST_P(NodeCacheLines, FlushReturnsTheDirtyLinesInSetOrder)
{
    // Filled out of set order; sets 9 and 40 end up Dirty under their
    // second tag, set 3 is Dirty then invalidated, set 20 is Shared.
    fill(cache, line(40), LineState::Shared, pattern(40, bytes()));
    fill(cache, line(2), LineState::Dirty, pattern(2, bytes()));
    fill(cache, line(20), LineState::Shared, pattern(20, bytes()));
    fill(cache, conflictOf(40), LineState::Dirty, pattern(41, bytes()));
    fill(cache, line(3), LineState::Dirty, pattern(3, bytes()));
    fill(cache, line(9), LineState::Dirty, pattern(9, bytes()));
    fill(cache, conflictOf(9), LineState::Dirty, pattern(10, bytes()));
    cache.invalidate(line(3));

    std::vector<Copied> dirty = flush(cache);
    ASSERT_EQ(dirty.size(), 3u);
    EXPECT_EQ(dirty[0].addr, line(2));
    EXPECT_EQ(dirty[0].data, pattern(2, bytes()));
    EXPECT_EQ(dirty[1].addr, conflictOf(9));
    EXPECT_EQ(dirty[1].data, pattern(10, bytes()));
    EXPECT_EQ(dirty[2].addr, conflictOf(40));
    EXPECT_EQ(dirty[2].data, pattern(41, bytes()));
    for (const Copied &c : dirty)
        EXPECT_EQ(c.state, LineState::Dirty);

    for (uint64_t i : {2, 3, 9, 20, 40}) {
        EXPECT_EQ(cache.findLine(line(i)), nullptr);
        EXPECT_EQ(cache.findLine(conflictOf(i)), nullptr);
        EXPECT_FALSE(cache.l1Hit(conflictOf(i)));
    }
    EXPECT_TRUE(flush(cache).empty());
}

INSTANTIATE_TEST_SUITE_P(
    LineSizes, NodeCacheLines, ::testing::Values(32u, 128u, 256u),
    [](const ::testing::TestParamInfo<uint32_t> &info) {
        return "Line" + std::to_string(info.param);
    });
