/**
 * @file
 * The paged table behind the directories and access-bit tables:
 * lookups never allocate, first touch yields a default-constructed
 * entry, slices stay on one page, clear() forgets everything, and
 * iteration visits touched entries in ascending index order.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/paged_table.hh"
#include "spec/access_bits.hh"

using namespace specrt;

namespace
{

/** Materialized pages of @p t. */
template <typename T>
size_t
numPages(const PagedTable<T> &t)
{
    size_t n = 0;
    t.forEachPage([&](size_t) { ++n; });
    return n;
}

} // namespace

TEST(PagedTable, UntouchedIndexIsNullAndAllocatesNothing)
{
    PagedTable<int> t(64);
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(12345), nullptr);
    EXPECT_EQ(numPages(t), 0u);
    EXPECT_EQ(t.size(), 0u);

    // A page materialized by one index leaves its neighbors untouched.
    t.at(70);
    EXPECT_EQ(numPages(t), 1u);
    EXPECT_EQ(t.find(71), nullptr);
    EXPECT_EQ(t.find(5000), nullptr);
    EXPECT_EQ(numPages(t), 1u);
}

TEST(PagedTable, FirstTouchIsDefaultConstructed)
{
    // MinW starts at infinity: pages must run the constructor, not
    // hand out zeroed memory.
    PagedTable<PrivSharedDirBits> t(256);
    PrivSharedDirBits &b = t.at(300);
    EXPECT_EQ(b.minW, iterInf);
    EXPECT_EQ(b.maxR1st, 0u);
    EXPECT_EQ(t.find(300), &b);
    b.minW = 9;
    EXPECT_EQ(t.at(300).minW, 9u); // a second at() keeps the entry
    EXPECT_EQ(t.size(), 1u);
}

TEST(PagedTable, SliceStaysOnOnePage)
{
    PagedTable<NPTagBits> t(256);
    NPTagBits *s = t.slice(256 + 240, 16); // the last 16 of page 1
    s[15].rOnly = true;
    EXPECT_EQ(numPages(t), 1u);
    // Only the slice's first index is touched.
    EXPECT_NE(t.find(256 + 240), nullptr);
    EXPECT_EQ(t.find(256 + 241), nullptr);
    EXPECT_EQ(t.size(), 1u);

    t.eraseSlice(256 + 240, 16);
    EXPECT_EQ(t.find(256 + 240), nullptr);
    EXPECT_FALSE(t.slice(256 + 240, 16)[15].rOnly);

    setLogThrowOnFatal(true);
    EXPECT_THROW(t.slice(256 + 248, 16), FatalError);
    setLogThrowOnFatal(false);
}

TEST(PagedTable, ClearForgetsEverything)
{
    PagedTable<PrivSharedDirBits> t(64);
    for (size_t i : {3u, 64u, 700u})
        t.at(i).minW = 1;
    size_t pages = numPages(t);
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    for (size_t i : {3u, 64u, 700u})
        EXPECT_EQ(t.find(i), nullptr);
    int visited = 0;
    t.forEach([&](size_t, const PrivSharedDirBits &) { ++visited; });
    EXPECT_EQ(visited, 0);
    // The pages stay for the next run, reset to the defaults.
    EXPECT_EQ(numPages(t), pages);
    EXPECT_EQ(t.at(700).minW, iterInf);
}

TEST(PagedTable, IteratesTouchedEntriesInAscendingOrder)
{
    PagedTable<int> t(64);
    for (size_t i : {900u, 5u, 63u, 64u, 130u, 4u})
        t.at(i) = static_cast<int>(i);

    std::vector<std::pair<size_t, int>> seen;
    t.forEach([&](size_t i, const int &v) { seen.emplace_back(i, v); });
    std::vector<std::pair<size_t, int>> want = {
        {4, 4}, {5, 5}, {63, 63}, {64, 64}, {130, 130}, {900, 900}};
    EXPECT_EQ(seen, want);

    // A window visits only the touched entries inside it.
    seen.clear();
    t.forEach(5, 130, [&](size_t i, const int &v) {
        seen.emplace_back(i, v);
    });
    want = {{5, 5}, {63, 63}, {64, 64}};
    EXPECT_EQ(seen, want);

    std::vector<size_t> pages;
    t.forEachPage([&](size_t first) { pages.push_back(first); });
    EXPECT_EQ(pages, (std::vector<size_t>{0, 64, 128, 896}));
}
