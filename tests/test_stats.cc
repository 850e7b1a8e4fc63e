/** @file Unit tests for the statistics package. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace specrt;

TEST(Stats, ScalarArithmetic)
{
    StatGroup g("g");
    Scalar s(&g, "s", "a scalar");
    EXPECT_EQ(s.value(), 0.0);
    s += 3;
    ++s;
    EXPECT_EQ(s.value(), 4.0);
    s = 10;
    EXPECT_EQ(s.value(), 10.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
}

TEST(Stats, VectorTotals)
{
    StatGroup g("g");
    VectorStat v(&g, "v", "a vector", 4);
    v[0] = 1;
    v[3] = 5;
    EXPECT_EQ(v.total(), 6.0);
    EXPECT_EQ(v.size(), 4u);
}

TEST(Stats, VectorOutOfRangeThrows)
{
    StatGroup g("g");
    VectorStat v(&g, "v", "a vector", 2);
    EXPECT_THROW(v[5] = 1, std::out_of_range);
}

TEST(Stats, GroupDumpContainsNamesAndDescs)
{
    StatGroup root("root");
    StatGroup child("child");
    root.addChild(&child);
    Scalar a(&root, "a", "stat a");
    Scalar b(&child, "b", "stat b");
    a = 7;
    b = 9;
    std::ostringstream os;
    root.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("root.a 7 # stat a"), std::string::npos);
    EXPECT_NE(out.find("root.child.b 9 # stat b"), std::string::npos);
}

#ifndef NDEBUG
TEST(Stats, SnapshotDuplicateDottedNameAsserts)
{
    // Two same-named children each holding a same-named scalar
    // produce two "root.twin.s" entries -- a silent aliasing bug for
    // every by-name consumer (telemetry JSON, timeline deltas), so
    // debug builds must trip the snapshot's duplicate check.
    StatGroup root("root");
    StatGroup twin_a("twin");
    StatGroup twin_b("twin");
    root.addChild(&twin_a);
    root.addChild(&twin_b);
    Scalar sa(&twin_a, "s", "");
    Scalar sb(&twin_b, "s", "");

    setLogThrowOnFatal(true);
    StatSnapshot snap;
    EXPECT_THROW(root.snapshot(snap), FatalError);
    setLogThrowOnFatal(false);
}

TEST(Stats, SnapshotUniqueNamesDoNotTripTheDuplicateCheck)
{
    // Same leaf name under differently named parents is fine: the
    // dotted paths differ.
    StatGroup root("root");
    StatGroup a("a");
    StatGroup b("b");
    root.addChild(&a);
    root.addChild(&b);
    Scalar sa(&a, "s", "");
    Scalar sb(&b, "s", "");

    setLogThrowOnFatal(true);
    StatSnapshot snap;
    EXPECT_NO_THROW(root.snapshot(snap));
    setLogThrowOnFatal(false);
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first, "root.a.s");
    EXPECT_EQ(snap[1].first, "root.b.s");
}
#endif // !NDEBUG

TEST(Stats, SnapshotVectorDottedTotal)
{
    StatGroup root("root");
    StatGroup child("child");
    root.addChild(&child);
    VectorStat v(&child, "v", "a vector", 3);
    v[0] = 1;
    v[2] = 4;
    StatSnapshot snap;
    root.snapshot(snap);
    // Only the aggregate is snapshotted, under the full dotted path.
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].first, "root.child.v.total");
    EXPECT_EQ(snap[0].second, 5.0);
}

TEST(Stats, VectorPrintKeepsPerIndexValues)
{
    StatGroup g("g");
    VectorStat v(&g, "v", "a vector", 2);
    v[1] = 3;
    std::ostringstream os;
    g.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("g.v[0] 0"), std::string::npos);
    EXPECT_NE(out.find("g.v[1] 3"), std::string::npos);
    EXPECT_NE(out.find("g.v.total 3"), std::string::npos);
}

TEST(Stats, SnapshotWithExplicitPrefix)
{
    StatGroup g("g");
    Scalar s(&g, "s", "a scalar");
    s = 2;
    StatSnapshot snap;
    g.snapshot(snap, "top");
    ASSERT_EQ(snap.size(), 1u);
    EXPECT_EQ(snap[0].first, "top.g.s");
    EXPECT_EQ(snap[0].second, 2.0);
}

TEST(Stats, GroupResetRecurses)
{
    StatGroup root("root");
    StatGroup child("child");
    root.addChild(&child);
    Scalar a(&root, "a", "");
    Scalar b(&child, "b", "");
    a = 1;
    b = 2;
    root.resetStats();
    EXPECT_EQ(a.value(), 0.0);
    EXPECT_EQ(b.value(), 0.0);
}
