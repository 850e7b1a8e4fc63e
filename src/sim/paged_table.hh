/**
 * @file
 * A sparse array that allocates fixed-size pages on first touch.
 *
 * In the modeled machine each node keeps its directory and access
 * bits beside its own memory and cache tags (Fig. 10), so it holds
 * state only for the lines it homes or caches. The simulator indexes
 * those tables by global ids (line id, translation-table slot); a
 * dense array per node would span the whole footprint on every node.
 * PagedTable keeps the dense array's index arithmetic but allocates a
 * page of entries only when an index on it is first written:
 *
 *  - find() never allocates; an index not touched since the last
 *    clear() reads as nullptr;
 *  - at() materializes the page (every entry default-constructed,
 *    so non-zero defaults such as an infinite time stamp hold) and
 *    marks the index touched;
 *  - clear() resets only the materialized pages and keeps them for
 *    the next run over the same footprint;
 *  - forEach() visits touched entries in ascending index order.
 */

#ifndef SPECRT_SIM_PAGED_TABLE_HH
#define SPECRT_SIM_PAGED_TABLE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace specrt
{

template <typename T>
class PagedTable
{
  public:
    /** @param page_entries entries per page, a power of two. */
    explicit PagedTable(size_t page_entries)
    {
        SPECRT_ASSERT(page_entries && !(page_entries & (page_entries - 1)),
                      "page size %zu is not a power of two",
                      page_entries);
        while ((size_t(1) << shift) < page_entries)
            ++shift;
        words = (page_entries + 63) / 64;
    }

    /** Entry @p idx if it was touched, else nullptr. */
    const T *
    find(size_t idx) const
    {
        if (!isSet(idx))
            return nullptr;
        return &pages[idx >> shift][idx & mask()];
    }

    T *
    find(size_t idx)
    {
        return const_cast<T *>(std::as_const(*this).find(idx));
    }

    /** Entry @p idx, materializing its page and marking it touched. */
    T &
    at(size_t idx)
    {
        size_t p = idx >> shift;
        if (p >= pages.size() || !pages[p])
            materialize(p);
        uint64_t &word = present[wordOf(idx)];
        uint64_t bit = bitOf(idx);
        if (!(word & bit)) {
            word |= bit;
            ++touched;
        }
        return pages[p][idx & mask()];
    }

    /**
     * Entries [first, first + n) as one contiguous run, marking only
     * @p first touched (a cache line's tag slice, keyed by its first
     * slot). The run must lie within one page.
     */
    T *
    slice(size_t first, size_t n)
    {
        SPECRT_ASSERT((first & mask()) + n <= pageEntries(),
                      "slice [%zu, +%zu) crosses a %zu-entry page",
                      first, n, pageEntries());
        return &at(first);
    }

    /** Undo slice(): reset the run and unmark @p first, if touched. */
    void
    eraseSlice(size_t first, size_t n)
    {
        T *run = find(first);
        if (!run)
            return;
        present[wordOf(first)] &= ~bitOf(first);
        --touched;
        std::fill(run, run + n, T{});
    }

    /** Forget every entry; materialized pages stay allocated. */
    void
    clear()
    {
        for (size_t p = 0; p < pages.size(); ++p) {
            if (!pages[p])
                continue;
            std::fill_n(pages[p].get(), pageEntries(), T{});
            std::fill_n(present.begin() + p * words, words, 0);
        }
        touched = 0;
    }

    /** Touched entries. */
    size_t size() const { return touched; }

    /** f(size_t idx, const T &) over touched entries in [lo, hi),
     *  ascending. */
    template <typename F>
    void
    forEach(size_t lo, size_t hi, F &&f) const
    {
        for (size_t p = lo >> shift; p < pages.size(); ++p) {
            size_t base = p << shift;
            if (base >= hi)
                break;
            if (!pages[p])
                continue;
            size_t end = std::min(hi - base, pageEntries());
            for (size_t off = lo > base ? lo - base : 0; off < end;
                 ++off) {
                if (isSet(base + off))
                    f(base + off, pages[p][off]);
            }
        }
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        forEach(0, std::numeric_limits<size_t>::max(),
                std::forward<F>(f));
    }

    /** f(size_t first_idx) for every materialized page, ascending. */
    template <typename F>
    void
    forEachPage(F &&f) const
    {
        for (size_t p = 0; p < pages.size(); ++p) {
            if (pages[p])
                f(p << shift);
        }
    }

  private:
    size_t pageEntries() const { return size_t(1) << shift; }
    size_t mask() const { return pageEntries() - 1; }

    /**
     * Touched bits live in one flat array beside the page pointers,
     * `words` per page (one even for a page under 64 entries), so a
     * lookup tests a bit without first loading the page.
     */
    size_t
    wordOf(size_t idx) const
    {
        return (idx >> shift) * words + ((idx & mask()) >> 6);
    }

    uint64_t
    bitOf(size_t idx) const
    {
        return uint64_t(1) << (idx & mask() & 63);
    }

    bool
    isSet(size_t idx) const
    {
        size_t w = wordOf(idx);
        return w < present.size() && (present[w] & bitOf(idx));
    }

    void
    materialize(size_t p)
    {
        if (p >= pages.size()) {
            pages.resize(p + 1);
            present.resize((p + 1) * words, 0);
        }
        pages[p] = std::make_unique<T[]>(pageEntries());
    }

    unsigned shift = 0;
    size_t words = 1;
    size_t touched = 0;
    /** Indexed by page number; unmaterialized pages hold nullptr. */
    std::vector<std::unique_ptr<T[]>> pages;
    /** One bit per entry of every page slot: touched since clear(). */
    std::vector<uint64_t> present;
};

} // namespace specrt

#endif // SPECRT_SIM_PAGED_TABLE_HH
