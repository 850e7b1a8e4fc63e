/**
 * @file
 * A global heap-allocation counter for the zero-allocation tests.
 *
 * Including this header replaces the test binary's global operator
 * new/delete, so gAllocs counts every heap allocation anything on
 * any thread makes. Include it from exactly one source file of a
 * test binary.
 */

#ifndef SPECRT_TESTS_SUPPORT_ALLOC_COUNTER_HH
#define SPECRT_TESTS_SUPPORT_ALLOC_COUNTER_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace
{

std::atomic<uint64_t> gAllocs{0};

/** Heap allocations made so far. */
inline uint64_t
allocsSoFar()
{
    return gAllocs.load(std::memory_order_relaxed);
}

} // namespace

// Not inlined, so GCC does not mistake the containers' new/delete
// pairs for malloc/delete or new/free (-Wmismatched-new-delete).
[[gnu::noinline]] void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // SPECRT_TESTS_SUPPORT_ALLOC_COUNTER_HH
