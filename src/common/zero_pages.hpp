/**
 * @file
 * Fixed-size, zero-initialized array whose memory is committed page by
 * page on first touch.
 *
 * The simulator's large tables (cache tag arrays, shadow-memory chunks)
 * start all-zero and a run touches a small part of them. A
 * value-initializing container writes every byte up front and so makes
 * every page resident; an anonymous private mapping is zero already,
 * and the kernel backs a page only when it is first written. Transparent
 * huge pages are refused for the mapping, so residency stays 4 KiB
 * granular whatever the host's THP setting.
 *
 * T must be valid when all its bytes are zero and must need no
 * destructor: no constructor ever runs on the elements.
 *
 * Under AddressSanitizer the storage comes from calloc() instead, so
 * reads and writes past the end still trip the redzone checks.
 */

#ifndef PARALOG_COMMON_ZERO_PAGES_HPP
#define PARALOG_COMMON_ZERO_PAGES_HPP

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

#ifndef __SANITIZE_ADDRESS__
#include <sys/mman.h>
#endif

namespace paralog {

template <typename T>
class ZeroPages
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "ZeroPages never runs element destructors");

  public:
    explicit ZeroPages(std::size_t n) : size_(n)
    {
        if (n == 0)
            return;
#ifdef __SANITIZE_ADDRESS__
        void *p = std::calloc(n, sizeof(T));
        if (!p)
            throw std::bad_alloc();
#else
        void *p = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        madvise(p, bytes(), MADV_NOHUGEPAGE); // advisory: ignore failure
#endif
        data_ = static_cast<T *>(p);
    }

    ~ZeroPages()
    {
        if (!data_)
            return;
#ifdef __SANITIZE_ADDRESS__
        std::free(data_);
#else
        munmap(data_, bytes());
#endif
    }

    ZeroPages(const ZeroPages &) = delete;
    ZeroPages &operator=(const ZeroPages &) = delete;

    T *data() { return data_; }
    const T *data() const { return data_; }
    std::size_t size() const { return size_; }
    std::size_t bytes() const { return size_ * sizeof(T); }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }

  private:
    T *data_ = nullptr;
    std::size_t size_;
};

} // namespace paralog

#endif // PARALOG_COMMON_ZERO_PAGES_HPP
