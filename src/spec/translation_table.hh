/**
 * @file
 * The address-range comparator / translation table of section 4.1.
 *
 * The compiler loads it with the physical ranges of the arrays under
 * test before the speculative loop starts; given an address it
 * yields which algorithm applies (plain / non-privatization /
 * privatization) and, for privatization, links each processor's
 * private copy to the shared array it mirrors.
 */

#ifndef SPECRT_SPEC_TRANSLATION_TABLE_HH
#define SPECRT_SPEC_TRANSLATION_TABLE_HH

#include <vector>

#include "mem/addr_map.hh"
#include "sim/types.hh"

namespace specrt
{

/** Which speculation algorithm applies to a range. */
enum class TestType
{
    None,      ///< plain cache coherence
    NonPriv,   ///< non-privatization algorithm (Figs. 4, 6, 7)
    Priv,      ///< privatization algorithm (Figs. 8, 9)
    /**
     * Reduction parallelization (an extension in the spirit of the
     * LRPD test's reduction leg; the paper lists faster handling of
     * common loop types as ongoing work). The array is accessed only
     * through tagged reduction statements; execution privatizes it
     * into zero-initialized partial accumulators that are merged
     * into the shared array after the loop. A non-reduction access
     * is detected by the address-range comparator and fails the run.
     */
    Reduction,
};

/** Role of a range under the privatization algorithm. */
enum class PrivRole
{
    NotPriv,
    SharedArray,   ///< the shared array (MaxR1st / MinW live here)
    PrivateCopy,   ///< one processor's private copy
};

/** One entry of the translation table. */
struct TestRange
{
    Addr base = invalidAddr;
    Addr end = invalidAddr;      ///< one past the last byte
    uint32_t elemBytes = 4;
    TestType type = TestType::None;
    PrivRole role = PrivRole::NotPriv;
    /** Base of the mirrored shared array (PrivateCopy ranges). */
    Addr sharedBase = invalidAddr;
    /** Owner processor (PrivateCopy ranges). */
    NodeId owner = invalidNode;
    /**
     * First slot of this range in the dense element-id space the
     * spec units index their access-bit tables with (see
     * TranslationTable::numElemSlots). Assigned at registration.
     */
    uint32_t elemOffset = 0;

    bool contains(Addr a) const { return a >= base && a < end; }

    /** Dense element id of @p a (must lie within the range). */
    uint32_t
    elemIndex(Addr a) const
    {
        return elemOffset + static_cast<uint32_t>((a - base) /
                                                  elemBytes);
    }

    /** One past the dense id of the range's last element. */
    uint32_t
    slotEnd() const
    {
        return elemOffset + static_cast<uint32_t>((end - base) /
                                                  elemBytes);
    }

    /** Address of the element with dense id @p slot (elemIndex's
     *  inverse). */
    Addr
    elemAt(size_t slot) const
    {
        return base + static_cast<Addr>(slot - elemOffset) * elemBytes;
    }

    /** Translate a private-copy address to its shared counterpart. */
    Addr
    toShared(Addr a) const
    {
        return sharedBase + (a - base);
    }
};

/**
 * The (global) translation table. The paper keeps one per node,
 * loaded identically by system calls; a single shared object is
 * equivalent in a simulator.
 */
class TranslationTable
{
  public:
    /** Register a non-privatization array under test. */
    void addNonPriv(const Region &region);

    /**
     * Register a privatization-tested array: the shared region plus
     * one private copy per processor.
     *
     * @param shared  the shared array region
     * @param copies  region of processor p's private copy, indexed p
     */
    void addPriv(const Region &shared,
                 const std::vector<const Region *> &copies);

    /** Look up the entry covering @p addr, or nullptr (plain data). */
    const TestRange *lookup(Addr addr) const;

    /** Unload everything (loop finished). */
    void
    clear()
    {
        ranges.clear();
        totalSlots = 0;
    }

    size_t numRanges() const { return ranges.size(); }

    /** Every registered range (dense-table iteration). */
    const std::vector<TestRange> &allRanges() const { return ranges; }

    /**
     * One past the highest dense element id handed out. Each range's
     * slot count is padded to a slotAlign multiple so a whole-line
     * slice starting at any in-range line never crosses into the
     * next range's slots.
     */
    uint32_t numElemSlots() const { return totalSlots; }

    /**
     * Per-range slot alignment: at least the largest possible
     * elements-per-line count (256-byte lines of 1-byte elements),
     * so per-line spec-bit slices stay within their range's slots.
     */
    static constexpr uint32_t slotAlign = 256;

  private:
    /** Assign r.elemOffset and grow the slot space. */
    void assignSlots(TestRange &r);

    std::vector<TestRange> ranges;
    uint32_t totalSlots = 0;
};

} // namespace specrt

#endif // SPECRT_SPEC_TRANSLATION_TABLE_HH
