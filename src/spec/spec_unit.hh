/**
 * @file
 * The speculative-parallelization hardware, attached to a DsmSystem.
 *
 * SpecSystem owns one SpecCacheUnit per cache controller (the Access
 * Bit Array + Test Logic of Fig. 10(a,b)) and one SpecDirUnit per
 * directory controller (the Translation Table + Access Bit Table +
 * Test Logic of Fig. 10(c)). Arm it before a speculative loop,
 * disarm after; a detected cross-iteration dependence calls the
 * abort hook and latches the failure.
 *
 * Access-bit storage mirrors the flat SRAM tables of Fig. 10: the
 * translation table assigns every element under test a dense slot id
 * (TestRange::elemIndex), and each unit keeps paged tables indexed by
 * it (sim/paged_table.hh) -- an access is an index, never a hash
 * probe, and a unit materializes pages only for the slots it touches,
 * i.e. the lines its node caches or homes. A slot's touched mark (per
 * line on the cache side) is the touched/untouched distinction the
 * protocol reads.
 */

#ifndef SPECRT_SPEC_SPEC_UNIT_HH
#define SPECRT_SPEC_SPEC_UNIT_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/dsm.hh"
#include "mem/spec_iface.hh"
#include "sim/paged_table.hh"
#include "sim/trace.hh"
#include "spec/access_bits.hh"
#include "spec/nonpriv.hh"
#include "spec/priv.hh"
#include "spec/translation_table.hh"

namespace specrt
{

class SpecSystem;

/**
 * Access-bit table page, in translation-table slots. A multiple of
 * slotAlign, so a line's tag slice (starting at a line boundary of a
 * slotAlign-aligned range) never crosses a page; at 4-byte elements
 * a page spans a quarter of a 4 KB placement page, so a home holds
 * pages only for the elements homed at it.
 */
constexpr size_t specPageSlots = TranslationTable::slotAlign;
static_assert(specPageSlots % TranslationTable::slotAlign == 0,
              "a line's tag slice must not cross a table page");

/** Cache-side speculation unit of one node. */
class SpecCacheUnit : public SpecCacheIface
{
  public:
    SpecCacheUnit(SpecSystem &sys, NodeId node);

    void onLoadHit(Addr addr, LineState state, IterNum iter) override;
    void onStoreDirtyHit(Addr addr, IterNum iter) override;
    void onFill(Addr line_addr, const MsgBits &bits, Addr elem_addr,
                bool is_write, IterNum iter) override;
    MsgBits onDirtyOut(Addr line_addr) override;
    MsgBits combineBits(Addr line_addr, const MsgBits &owner_bits,
                        const MsgBits &home_bits) override;
    void onInval(Addr line_addr) override;
    void onMsg(const Msg &msg) override;

    /** Drop every tag access bit (loop boundary reset line). */
    void clearAll();

    /**
     * Visit each resident line's non-priv tag slice (invariant
     * checker inspection): f(Addr line, const NPTagBits *tags,
     * uint32_t elems).
     */
    template <typename F>
    void forEachNpLine(F &&f) const;

    /** f(size_t first_slot) for every materialized tag-table page. */
    template <typename F>
    void
    forEachPage(F &&f) const
    {
        npTags.forEachPage(f);
        privTags.forEachPage(f);
    }

  private:
    /** Zero one line's tags and drop its resident mark. */
    void dropLine(uint32_t first, uint32_t elems);

    SpecSystem &sys;
    NodeId node;

    /**
     * Per-element tag bits, indexed by dense element id. A resident
     * line is a slice() keyed by its first slot, so touched slots
     * are exactly the resident lines.
     */
    PagedTable<NPTagBits> npTags{specPageSlots};
    PagedTable<PrivTagBits> privTags{specPageSlots};
};

/** Directory-side speculation unit of one home node. */
class SpecDirUnit : public SpecDirIface
{
  public:
    SpecDirUnit(SpecSystem &sys, NodeId node);

    SpecDirAction onReadReq(const Msg &req) override;
    SpecDirAction onWriteReq(const Msg &req) override;
    MsgBits collectFillBits(NodeId requester, Addr line_addr,
                            IterNum iter) override;
    void onDirtyBits(NodeId from, Addr line_addr,
                     const MsgBits &bits) override;
    void onMsg(const Msg &msg) override;

    /** Drop all access-bit-table state (loop boundary). */
    void clearAll();

    // --- invariant checker inspection ---------------------------------

    /** Non-priv home bits of one element, or nullptr (untouched). */
    const NPDirBits *findNp(Addr elem) const;

    /** f(Addr elem, const NPDirBits &) over touched elements. */
    template <typename F>
    void forEachNp(F &&f) const;
    /** f(Addr elem, const PrivSharedDirBits &) likewise. */
    template <typename F>
    void forEachShared(F &&f) const;
    /** f(Addr elem, const PrivPrivDirBits &) likewise. */
    template <typename F>
    void forEachPriv(F &&f) const;

    /** f(size_t first_slot) for every materialized bit-table page. */
    template <typename F>
    void
    forEachPage(F &&f) const
    {
        np.forEachPage(f);
        ps.forEachPage(f);
        pp.forEachPage(f);
    }

    /**
     * Mutable home bits of one element, materializing the entry if
     * absent. Verification seeding access only: the model checker's
     * seeded-bug scenarios use these to plant a corrupted directory
     * state that the invariant sweep must then attribute. Protocol
     * code never calls them.
     */
    NPDirBits &npBitsForTest(Addr elem);
    PrivSharedDirBits &sharedBitsForTest(Addr elem);

    /** Read-ins still waiting for their ReadInReply (quiesce). */
    size_t numPendingReadIns() const { return pendingReadIns.size(); }

    /**
     * Drop in-flight read-in bookkeeping. Called at disarm: after an
     * abort the replies were discarded with the event queue, so the
     * entries can never complete and must not survive into the next
     * phase (the quiesce pass would flag them as orphans).
     */
    void clearPendingReadIns() { pendingReadIns.clear(); }

  private:
    struct PendingReadIn
    {
        Addr sharedLine = invalidAddr;
        Addr privLine = invalidAddr;
        Addr privElem = invalidAddr;
    };

    /** True if every element of the private line is untouched. */
    bool lineUntouched(Addr line, const TestRange &range) const;

    void sendReadFirstToShared(const TestRange &range, Addr priv_elem,
                               IterNum iter);
    void sendFirstWriteToShared(const TestRange &range, Addr priv_elem,
                                IterNum iter);
    void startReadIn(const Msg &req, const TestRange &range,
                     bool for_write);

    SpecSystem &sys;
    NodeId node;

    PagedTable<NPDirBits> np{specPageSlots};
    PagedTable<PrivSharedDirBits> ps{specPageSlots};
    PagedTable<PrivPrivDirBits> pp{specPageSlots};
    /** In-flight read-ins, keyed by the SHARED line address. */
    std::vector<PendingReadIn> pendingReadIns;
};

/** Description of a latched speculation failure. */
struct SpecFailure
{
    bool failed = false;
    NodeId node = invalidNode;
    Addr elemAddr = invalidAddr;
    Tick tick = 0;
    /**
     * Iteration of the failing access (for a failure on a
     * First_update, ROnly_update or First_update_fail, the iteration
     * of the read that sent it); 0 for a dirty-line merge, which has
     * no single access.
     */
    IterNum iter = 0;
    std::string reason;
    /**
     * Reconstructed abort cause: the conflicting access pair and the
     * violated §3.2/§3.3 rule. Only populated (cause.valid) when
     * protocol tracing was enabled at failure time.
     */
    trace::AbortCause cause;
};

/** The whole speculation hardware of one machine. */
class SpecSystem : public StatGroup
{
  public:
    explicit SpecSystem(DsmSystem &dsm);
    ~SpecSystem();

    SpecSystem(const SpecSystem &) = delete;
    SpecSystem &operator=(const SpecSystem &) = delete;

    DsmSystem &machine() { return dsm; }
    TranslationTable &table() { return _table; }
    const TranslationTable &table() const { return _table; }

    /** Clear all access bits and start checking accesses. */
    void arm();
    /** Stop checking (loop done); keeps state for inspection. */
    void disarm();
    bool armed() const { return _armed; }

    /**
     * Latch a failure of the access by @p node to @p elem in
     * iteration @p iter and fire the abort hook (idempotent).
     */
    void fail(NodeId node, Addr elem, IterNum iter, const char *reason);
    const SpecFailure &failure() const { return _failure; }
    /** Clear the failure latch (new loop attempt). */
    void clearFailure() { _failure = SpecFailure{}; }

    /** Hook fired once on the first failure. */
    void setAbortHook(std::function<void()> hook)
    {
        abortHook = std::move(hook);
    }

    SpecCacheUnit &cacheUnit(NodeId n) { return *cacheUnits.at(n); }
    SpecDirUnit &dirUnit(NodeId n) { return *dirUnits.at(n); }
    const SpecCacheUnit &cacheUnit(NodeId n) const
    {
        return *cacheUnits.at(n);
    }
    const SpecDirUnit &dirUnit(NodeId n) const { return *dirUnits.at(n); }

    // Shared plumbing for the units.
    Network &net() { return dsm.network(); }
    AddrMap &mem() { return dsm.memory(); }
    const MachineConfig &cfg() const { return dsm.config(); }
    DirCtrl &dirCtrl(NodeId n) { return dsm.dirCtrl(n); }
    Tick now() const { return dsm.eventQueue().curTick(); }
    uint32_t lineBytes() const { return dsm.config().l2.lineBytes; }
    Addr lineOf(Addr a) const
    {
        return a & ~Addr(lineBytes() - 1);
    }

    Scalar firstUpdates;
    Scalar rOnlyUpdates;
    Scalar readFirstSigs;
    Scalar firstWriteSigs;
    Scalar readIns;
    Scalar copyOuts;
    Scalar failures;

  private:
    DsmSystem &dsm;
    TranslationTable _table{dsm.memory()};
    bool _armed = false;
    SpecFailure _failure;
    std::function<void()> abortHook;

    std::vector<std::unique_ptr<SpecCacheUnit>> cacheUnits;
    std::vector<std::unique_ptr<SpecDirUnit>> dirUnits;
};

// --------------------------------------------------------------------
// Inspection templates (need the full SpecSystem definition)
// --------------------------------------------------------------------

template <typename F>
void
SpecCacheUnit::forEachNpLine(F &&f) const
{
    const uint32_t lineBytes = sys.lineBytes();
    for (const TestRange &r : sys.table().allRanges()) {
        if (r.type != TestType::NonPriv)
            continue;
        uint32_t elems = lineBytes / r.elemBytes;
        npTags.forEach(r.elemOffset, r.slotEnd(),
                       [&](size_t slot, const NPTagBits &tags) {
                           f(r.elemAt(slot), &tags, elems);
                       });
    }
}

template <typename F>
void
SpecDirUnit::forEachNp(F &&f) const
{
    for (const TestRange &r : sys.table().allRanges()) {
        np.forEach(r.elemOffset, r.slotEnd(),
                   [&](size_t slot, const NPDirBits &b) {
                       f(r.elemAt(slot), b);
                   });
    }
}

template <typename F>
void
SpecDirUnit::forEachShared(F &&f) const
{
    for (const TestRange &r : sys.table().allRanges()) {
        ps.forEach(r.elemOffset, r.slotEnd(),
                   [&](size_t slot, const PrivSharedDirBits &b) {
                       f(r.elemAt(slot), b);
                   });
    }
}

template <typename F>
void
SpecDirUnit::forEachPriv(F &&f) const
{
    for (const TestRange &r : sys.table().allRanges()) {
        pp.forEach(r.elemOffset, r.slotEnd(),
                   [&](size_t slot, const PrivPrivDirBits &b) {
                       f(r.elemAt(slot), b);
                   });
    }
}

} // namespace specrt

#endif // SPECRT_SPEC_SPEC_UNIT_HH
