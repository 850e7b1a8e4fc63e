/**
 * @file
 * A fixed-inline-capacity vector for trivially copyable payloads.
 *
 * Messages carry a cache line of data plus one word of speculation
 * state per element. Both are tiny and bounded by the line size, so
 * storing them in std::vector means two heap allocations per message
 * construction -- and messages are copied on every network delivery.
 * SmallVec keeps up to N elements inline (no allocation at all) and
 * falls back to the heap only for exotic configurations whose lines
 * exceed the inline capacity. With the default 64-byte lines the
 * whole protocol runs with every payload inline.
 */

#ifndef SPECRT_SIM_SMALL_VEC_HH
#define SPECRT_SIM_SMALL_VEC_HH

#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace specrt
{

template <typename T, uint32_t N>
class SmallVec
{
    static_assert(std::is_trivially_copyable<T>::value,
                  "SmallVec payloads must be trivially copyable");
    static_assert(std::is_trivially_destructible<T>::value,
                  "SmallVec payloads must be trivially destructible");

  public:
    using value_type = T;

    SmallVec() = default;

    explicit SmallVec(uint32_t n) { resize(n); }

    SmallVec(const SmallVec &o) { assign(o.data(), o.size()); }

    SmallVec(SmallVec &&o) noexcept { steal(o); }

    SmallVec &
    operator=(const SmallVec &o)
    {
        if (this != &o)
            assign(o.data(), o.size());
        return *this;
    }

    SmallVec &
    operator=(SmallVec &&o) noexcept
    {
        if (this != &o) {
            release();
            steal(o);
        }
        return *this;
    }

    ~SmallVec() { release(); }

    /** Copy @p n elements from @p src (any contiguous source). */
    void
    assign(const T *src, uint32_t n)
    {
        reserve(n);
        // A full inline buffer (a whole default-size line) is the
        // common payload; a copy of constant size compiles to a few
        // vector moves instead of a libc call.
        if (n == N)
            std::memcpy(ptr, src, sizeof(T) * N);
        else if (n)
            std::memcpy(ptr, src, size_t(n) * sizeof(T));
        len = n;
    }

    /** Copy from any contiguous container (std::vector, SmallVec). */
    template <typename C>
    void
    assign(const C &c)
    {
        assign(c.data(), static_cast<uint32_t>(c.size()));
    }

    /** Resize; new elements are value-initialized (zeroed). */
    void
    resize(uint32_t n)
    {
        reserve(n);
        if (n > len)
            std::memset(ptr + len, 0, size_t(n - len) * sizeof(T));
        len = n;
    }

    void
    push_back(const T &v)
    {
        reserve(len + 1);
        ptr[len++] = v;
    }

    void clear() { len = 0; }

    T *data() { return ptr; }
    const T *data() const { return ptr; }
    uint32_t size() const { return len; }
    bool empty() const { return len == 0; }

    T &operator[](uint32_t i) { return ptr[i]; }
    const T &operator[](uint32_t i) const { return ptr[i]; }

    T *begin() { return ptr; }
    T *end() { return ptr + len; }
    const T *begin() const { return ptr; }
    const T *end() const { return ptr + len; }

    bool
    operator==(const SmallVec &o) const
    {
        return len == o.len &&
               (len == 0 ||
                std::memcmp(ptr, o.ptr, size_t(len) * sizeof(T)) == 0);
    }
    bool operator!=(const SmallVec &o) const { return !(*this == o); }

    /** True when the payload lives in the inline buffer. */
    bool inlined() const { return ptr == inlineBuf(); }

    static constexpr uint32_t inlineCapacity = N;

  private:
    T *inlineBuf() { return reinterpret_cast<T *>(storage); }
    const T *
    inlineBuf() const
    {
        return reinterpret_cast<const T *>(storage);
    }

    void
    reserve(uint32_t n)
    {
        if (n <= cap)
            return;
        uint32_t newCap = cap * 2 > n ? cap * 2 : n;
        T *p = static_cast<T *>(
            ::operator new(size_t(newCap) * sizeof(T)));
        if (len)
            std::memcpy(p, ptr, size_t(len) * sizeof(T));
        if (!inlined())
            ::operator delete(ptr);
        ptr = p;
        cap = newCap;
    }

    void
    release()
    {
        if (!inlined())
            ::operator delete(ptr);
        ptr = inlineBuf();
        cap = N;
        len = 0;
    }

    void
    steal(SmallVec &o) noexcept
    {
        if (o.inlined()) {
            ptr = inlineBuf();
            cap = N;
            len = o.len;
            if (len)
                std::memcpy(ptr, o.ptr, size_t(len) * sizeof(T));
        } else {
            ptr = o.ptr;
            cap = o.cap;
            len = o.len;
            o.ptr = o.inlineBuf();
            o.cap = N;
        }
        o.len = 0;
    }

    alignas(T) unsigned char storage[size_t(N) * sizeof(T)];
    T *ptr = inlineBuf();
    uint32_t len = 0;
    uint32_t cap = N;
};

} // namespace specrt

#endif // SPECRT_SIM_SMALL_VEC_HH
