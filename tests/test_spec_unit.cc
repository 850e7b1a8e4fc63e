/**
 * @file
 * Integration tests of the speculation units attached to a real
 * machine: translation table, update-message generation (FirstUpdate
 * on clean first reads, ROnlyUpdate on cross-reader hits,
 * FirstUpdateFail bounces), fill-bit contents, the read-in path, the
 * CopyOutSig hardware arbitration, and failure latching.
 */

#include <gtest/gtest.h>

#include "mem/dsm.hh"
#include "sim/logging.hh"
#include "spec/spec_unit.hh"
#include "support/p3m_layout.hh"

using namespace specrt;

namespace
{

struct SpecMachine
{
    MachineConfig cfg;
    std::unique_ptr<DsmSystem> dsm;
    std::unique_ptr<SpecSystem> spec;
    const Region *shared = nullptr;
    std::vector<const Region *> priv;

    explicit SpecMachine(int procs = 4, TestType type = TestType::NonPriv)
    {
        cfg.numProcs = procs;
        dsm = std::make_unique<DsmSystem>(cfg);
        spec = std::make_unique<SpecSystem>(*dsm);

        AddrMap &mem = dsm->memory();
        int id = mem.alloc("A", 4096, 4, Placement::Fixed, 0);
        shared = &mem.region(id);
        for (uint64_t e = 0; e < shared->numElems(); ++e)
            mem.write(shared->elemAddr(e), 4, 100 + e);

        if (type == TestType::NonPriv) {
            spec->table().addNonPriv(*shared);
        } else {
            for (int p = 0; p < procs; ++p) {
                int pid = mem.alloc("A_priv" + std::to_string(p), 4096,
                                    4, Placement::Fixed, p);
                priv.push_back(&mem.region(pid));
                mem.copyBytes(shared->base, priv.back()->base, 4096);
            }
            spec->table().addPriv(*shared, priv);
        }
        spec->arm();
    }

    uint64_t
    load(NodeId n, Addr a, IterNum iter = 1)
    {
        uint64_t v = 0;
        dsm->cacheCtrl(n).load(a, 4, iter, [&](uint64_t val) {
            v = val;
        });
        dsm->eventQueue().run();
        return v;
    }

    void
    store(NodeId n, Addr a, uint64_t v, IterNum iter = 1)
    {
        ASSERT_TRUE(dsm->cacheCtrl(n).store(a, 4, v, iter));
        dsm->eventQueue().run();
    }

    uint64_t
    msgs(MsgType t)
    {
        return static_cast<uint64_t>(
            dsm->network().msgsByType[static_cast<size_t>(t)]);
    }
};

} // namespace

TEST(TranslationTable, LookupAndRoles)
{
    SpecMachine m(4, TestType::Priv);
    TranslationTable &t = m.spec->table();
    EXPECT_EQ(t.numRanges(), 5u); // shared + 4 copies

    const TestRange *s = t.lookup(m.shared->elemAddr(3));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->role, PrivRole::SharedArray);

    const TestRange *p2 = t.lookup(m.priv[2]->elemAddr(3));
    ASSERT_NE(p2, nullptr);
    EXPECT_EQ(p2->role, PrivRole::PrivateCopy);
    EXPECT_EQ(p2->owner, 2);
    EXPECT_EQ(p2->toShared(m.priv[2]->elemAddr(3)),
              m.shared->elemAddr(3));

    EXPECT_EQ(t.lookup(0x10), nullptr);
    t.clear();
    EXPECT_EQ(t.numRanges(), 0u);

    // A P3m-shaped table: every lookup agrees with a linear scan over
    // the registered ranges, pads and unmapped pages included.
    MachineConfig cfg;
    cfg.numProcs = test_support::p3mProcs;
    DsmSystem dsm(cfg);
    SpecSystem spec(dsm);
    test_support::P3mLayout l =
        test_support::allocP3mLayout(dsm.memory());
    TranslationTable &big = spec.table();
    for (size_t k = 0; k < l.privShared.size(); ++k)
        big.addPriv(*l.privShared[k], l.privCopies[k]);
    big.addNonPriv(*l.nonPriv);
    EXPECT_EQ(big.numRanges(), 35u);
    std::vector<Addr> probes = test_support::decodeProbes(dsm.memory());
    for (Addr a : probes) {
        const TestRange *want = nullptr;
        for (const TestRange &r : big.allRanges()) {
            if (r.contains(a))
                want = &r;
        }
        ASSERT_EQ(big.lookup(a), want) << "addr " << a;
    }
    big.clear();
    for (Addr a : probes)
        ASSERT_EQ(big.lookup(a), nullptr) << "addr " << a;

    // A test range is exactly one region of the address map, and
    // registered once.
    Region off = *l.nonPriv;
    off.base += off.elemBytes;
    setLogThrowOnFatal(true);
    EXPECT_THROW(big.addNonPriv(off), FatalError);
    big.addNonPriv(*l.nonPriv);
    EXPECT_THROW(big.addNonPriv(*l.nonPriv), FatalError);
    setLogThrowOnFatal(false);
}

TEST(SpecUnit, MissesNeedNoUpdateMessages)
{
    // A read miss carries its speculation bookkeeping on the
    // ordinary coherence transaction.
    SpecMachine m;
    m.load(1, m.shared->elemAddr(0));
    EXPECT_EQ(m.msgs(MsgType::FirstUpdate), 0u);
    EXPECT_EQ(m.msgs(MsgType::ROnlyUpdate), 0u);
    EXPECT_FALSE(m.spec->failure().failed);
}

TEST(SpecUnit, CleanHitFirstReadSendsFirstUpdate)
{
    SpecMachine m;
    m.load(1, m.shared->elemAddr(0)); // fill the line
    m.load(1, m.shared->elemAddr(1)); // clean hit, new element
    EXPECT_EQ(m.msgs(MsgType::FirstUpdate), 1u);
    // Re-reading sends nothing more.
    m.load(1, m.shared->elemAddr(1));
    EXPECT_EQ(m.msgs(MsgType::FirstUpdate), 1u);
}

TEST(SpecUnit, CrossReaderHitSendsROnlyUpdate)
{
    SpecMachine m;
    m.load(1, m.shared->elemAddr(0)); // P1 first on elem 0
    m.load(2, m.shared->elemAddr(1)); // P2 fills line; first on elem 1
    // P2 now reads elem 0 from its cached copy: tag.First == OTHER,
    // ROnly not yet set -> ROnly_update.
    m.load(2, m.shared->elemAddr(0));
    EXPECT_EQ(m.msgs(MsgType::ROnlyUpdate), 1u);
    EXPECT_FALSE(m.spec->failure().failed);
}

TEST(SpecUnit, ConcurrentFirstReadsBounceTheLoser)
{
    SpecMachine m;
    m.load(1, m.shared->elemAddr(0));
    m.load(2, m.shared->elemAddr(1));
    // Both now hold the line; both read the untouched element 2 in
    // the same cycle: two FirstUpdates race to the home, the loser
    // is bounced with FirstUpdateFail (Fig. 7(f)/(g)) -- benign for
    // a read-read race.
    uint64_t v1 = 0, v2 = 0;
    m.dsm->cacheCtrl(1).load(m.shared->elemAddr(2), 4, 1,
                             [&](uint64_t v) { v1 = v; });
    m.dsm->cacheCtrl(2).load(m.shared->elemAddr(2), 4, 1,
                             [&](uint64_t v) { v2 = v; });
    m.dsm->eventQueue().run();
    EXPECT_EQ(v1, 102u);
    EXPECT_EQ(v2, 102u);
    EXPECT_EQ(m.msgs(MsgType::FirstUpdate), 2u);
    EXPECT_EQ(m.msgs(MsgType::FirstUpdateFail), 1u);
    EXPECT_FALSE(m.spec->failure().failed);
    // A write by anyone now fails (the element is read-shared).
    m.store(1, m.shared->elemAddr(2), 7);
    EXPECT_TRUE(m.spec->failure().failed);
}

TEST(SpecUnit, FirstUpdateRaceReportsTheReadersIteration)
{
    // Node 1 writes element 2 in iteration 7 while node 15 still
    // holds the line clean; node 15 reads the element in iteration 5
    // as a hit, so its First_update reaches the home after the write.
    // The home detects the race, and the failure carries the
    // iteration of the read that sent the update.
    for (Tick later = 15; later <= 180; later += 5) {
        SpecMachine m(16);
        m.load(1, m.shared->elemAddr(0));
        m.load(15, m.shared->elemAddr(1));
        Addr elem = m.shared->elemAddr(2);
        ASSERT_TRUE(m.dsm->cacheCtrl(1).store(elem, 4, 9, 7));
        m.dsm->eventQueue().scheduleIn(later, [&m, elem]() {
            m.dsm->cacheCtrl(15).load(elem, 4, 5, [](uint64_t) {});
        });
        m.dsm->eventQueue().run();
        const SpecFailure &f = m.spec->failure();
        ASSERT_TRUE(f.failed) << "read " << later << " ticks later";
        EXPECT_EQ(f.node, 15) << later;
        EXPECT_NE(f.reason.find("First_update"), std::string::npos)
            << later << ": " << f.reason;
        EXPECT_EQ(f.iter, 5) << "read " << later << " ticks later";
    }
}

TEST(SpecUnit, FailureLatchesOnceWithDetail)
{
    SpecMachine m;
    int aborts = 0;
    m.spec->setAbortHook([&]() { ++aborts; });
    m.load(1, m.shared->elemAddr(0));
    m.store(2, m.shared->elemAddr(0), 1); // write after foreign read
    EXPECT_TRUE(m.spec->failure().failed);
    EXPECT_EQ(m.spec->failure().elemAddr, m.shared->elemAddr(0));
    EXPECT_FALSE(m.spec->failure().reason.empty());
    EXPECT_EQ(aborts, 1);
    // A second violation does not re-fire the hook.
    m.dsm->eventQueue().reset();
    m.store(3, m.shared->elemAddr(4), 1);
    m.load(1, m.shared->elemAddr(4));
    EXPECT_EQ(aborts, 1);
}

TEST(SpecUnit, DisarmedUnitsAreInert)
{
    SpecMachine m;
    m.spec->disarm();
    m.load(1, m.shared->elemAddr(0));
    m.store(2, m.shared->elemAddr(0), 1);
    m.load(3, m.shared->elemAddr(0));
    EXPECT_FALSE(m.spec->failure().failed);
    EXPECT_EQ(m.msgs(MsgType::FirstUpdate), 0u);
}

TEST(SpecUnit, ArmClearsOldState)
{
    SpecMachine m;
    m.load(1, m.shared->elemAddr(0));
    m.spec->arm(); // new loop: all access bits cleared
    m.store(2, m.shared->elemAddr(0), 9);
    EXPECT_FALSE(m.spec->failure().failed);
}

TEST(SpecUnit, PrivateReadTriggersReadIn)
{
    SpecMachine m(4, TestType::Priv);
    // Processor 2 reads its private copy: untouched line ->
    // ReadInReq to the shared home, data comes back, load completes
    // with the shared array's value.
    uint64_t v = m.load(2, m.priv[2]->elemAddr(5), 3);
    EXPECT_EQ(v, 105u);
    EXPECT_EQ(m.msgs(MsgType::ReadInReq), 1u);
    EXPECT_EQ(m.msgs(MsgType::ReadInReply), 1u);
    EXPECT_FALSE(m.spec->failure().failed);
    // MaxR1st at the shared home recorded iteration 3: an earlier
    // iteration writing now is a flow dependence.
    m.store(1, m.priv[1]->elemAddr(5), 1, /*iter=*/2);
    EXPECT_TRUE(m.spec->failure().failed);
}

TEST(SpecUnit, WriteToUntouchedLineReadsInForWrite)
{
    SpecMachine m(4, TestType::Priv);
    // The very first write to an untouched private line travels as a
    // read-in-for-write (Fig. 9(h)/(j)), which updates MinW at the
    // shared home directly -- no separate first-write signal.
    m.store(1, m.priv[1]->elemAddr(7), 42, /*iter=*/4);
    EXPECT_EQ(m.msgs(MsgType::ReadInReq), 1u);
    EXPECT_EQ(m.msgs(MsgType::FirstWriteSig), 0u);
    // A later iteration's read-first on another processor fails.
    m.load(2, m.priv[2]->elemAddr(7), /*iter=*/6);
    EXPECT_TRUE(m.spec->failure().failed);
}

TEST(SpecUnit, FirstWriteOnTouchedLineSignals)
{
    SpecMachine m(4, TestType::Priv);
    // Touch the line with a read first (read-in), then write another
    // element of it: the private data is valid, so the write's first
    // occurrence flows to the shared home as a FirstWriteSig
    // (Fig. 9(g)/(i)).
    m.load(1, m.priv[1]->elemAddr(0), /*iter=*/1);
    m.store(1, m.priv[1]->elemAddr(2), 42, /*iter=*/2);
    EXPECT_GE(m.msgs(MsgType::FirstWriteSig), 1u);
    // A later iteration's read-first fails (MinW = 2).
    m.load(2, m.priv[2]->elemAddr(2), /*iter=*/5);
    EXPECT_TRUE(m.spec->failure().failed);
}

TEST(SpecUnit, WrittenPrivElemsReportsLastWriters)
{
    SpecMachine m(4, TestType::Priv);
    m.store(1, m.priv[1]->elemAddr(3), 11, 2);
    m.store(1, m.priv[1]->elemAddr(3), 12, 5);
    m.store(1, m.priv[1]->elemAddr(8), 13, 4);
    // Processor 1's private directory holds each written element's
    // last writing iteration (PMaxW).
    std::map<Addr, IterNum> by_addr;
    m.spec->dirUnit(1).forEachPriv(
        [&](Addr elem, const PrivPrivDirBits &b) {
            if (m.priv[1]->contains(elem) && b.pMaxW > 0)
                by_addr[elem] = b.pMaxW;
        });
    ASSERT_EQ(by_addr.size(), 2u);
    EXPECT_EQ(by_addr[m.priv[1]->elemAddr(3)], 5);
    EXPECT_EQ(by_addr[m.priv[1]->elemAddr(8)], 4);
}

TEST(SpecUnit, CopyOutSigHardwareArbitration)
{
    SpecMachine m(4, TestType::Priv);
    // Send copy-out values for element 9 from two "processors" with
    // different iteration numbers; the higher iteration must win
    // regardless of arrival order.
    Addr elem = m.shared->elemAddr(9);
    auto send = [&](NodeId src, IterNum iter, uint64_t value) {
        Msg msg;
        msg.type = MsgType::CopyOutSig;
        msg.src = src;
        msg.dst = m.dsm->memory().homeOf(elem);
        msg.lineAddr = m.dsm->cacheCtrl(0).cacheArray().lineAlign(elem);
        msg.elemAddr = elem;
        msg.iter = iter;
        msg.value = value;
        m.dsm->network().send(std::move(msg));
    };
    send(1, 7, 777);
    m.dsm->eventQueue().run();
    send(2, 3, 333); // older iteration arrives later: ignored
    m.dsm->eventQueue().run();
    EXPECT_EQ(m.dsm->memory().read(elem, 4), 777u);
    send(3, 9, 999);
    m.dsm->eventQueue().run();
    EXPECT_EQ(m.dsm->memory().read(elem, 4), 999u);
}

TEST(SpecUnit, EvictedDirtyBitsReachTheHomeAndStillDetect)
{
    SpecMachine m;
    // Node 1 writes an element while holding the line dirty: the
    // First/NoShr bits live only in its cache tags. Evict the line
    // (conflicting fill 8192 lines away needs a bigger region).
    int id = m.dsm->memory().alloc("big", 1024 * 1024 + 4096, 4,
                                   Placement::Fixed, 0);
    const Region *big = &m.dsm->memory().region(id);
    m.spec->table().clear();
    m.spec->table().addNonPriv(*big);
    m.spec->arm();

    m.store(1, big->elemAddr(0), 77);
    EXPECT_FALSE(m.spec->failure().failed);
    // Evict: the writeback must carry the tag access bits home.
    m.load(1, big->base + 8192 * 64);
    EXPECT_FALSE(m.spec->failure().failed);
    // Another processor now reads the element: the home's merged
    // bits (First=1, NoShr) make this a detected dependence.
    m.load(2, big->elemAddr(0));
    EXPECT_TRUE(m.spec->failure().failed);
}

TEST(SpecUnit, ForwardedDirtyLineCarriesCombinedBits)
{
    SpecMachine m;
    // Node 1 reads elems 0 and 1 (first accessor of both), then
    // writes elem 0 -> line dirty at node 1 with authoritative tags.
    m.load(1, m.shared->elemAddr(0));
    m.load(1, m.shared->elemAddr(1));
    m.store(1, m.shared->elemAddr(0), 5);
    // Node 2 reads elem 2: 3-hop forward; its fill bits combine the
    // home's view with node 1's tags. Node 2 reading elem 2 is fine;
    // reading elem 0 (written by node 1) must fail.
    uint64_t v = m.load(2, m.shared->elemAddr(2));
    EXPECT_EQ(v, 102u);
    EXPECT_FALSE(m.spec->failure().failed);
    m.load(2, m.shared->elemAddr(0));
    EXPECT_TRUE(m.spec->failure().failed);
}

TEST(SpecUnit, FillBitsDescribeDirectoryState)
{
    SpecMachine m;
    m.load(1, m.shared->elemAddr(0));
    SpecDirUnit &home = m.spec->dirUnit(0);
    MsgBits bits = home.collectFillBits(
        2, m.shared->base, 1);
    ASSERT_EQ(bits.size(), 16u); // 64B line / 4B elements
    // Element 0: First = node 1 -> node 2 decodes OTHER, node 1 OWN.
    EXPECT_EQ(npWireToTag(bits[0], 1).first, TagFirst::Own);
    EXPECT_EQ(npWireToTag(bits[0], 2).first, TagFirst::Other);
    // Untouched elements decode NONE.
    EXPECT_EQ(npWireToTag(bits[5], 2).first, TagFirst::None);
}
