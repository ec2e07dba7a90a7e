#include "mem/main_memory.hpp"

#include <bit>
#include <cstring>

#include "common/logging.hpp"

namespace paralog {

// The single-page fast paths memcpy raw host bytes; the cross-page slow
// paths assemble values with little-endian shifts. Both must agree.
static_assert(std::endian::native == std::endian::little,
              "MainMemory fast paths assume a little-endian host");

MainMemory::Page &
MainMemory::pageFor(Addr addr)
{
    std::uint64_t pn = addr >> kPageShift;
    if (pn == cachedPn_)
        return *cachedPage_;
    std::unique_ptr<Page> &slot = pages_[pn];
    if (!slot)
        slot = std::make_unique<Page>(); // value-initialized: all zero
    cachedPn_ = pn;
    cachedPage_ = slot.get();
    return *cachedPage_;
}

const MainMemory::Page *
MainMemory::pageForConst(Addr addr) const
{
    std::uint64_t pn = addr >> kPageShift;
    if (pn == cachedPn_)
        return cachedPage_;
    const std::unique_ptr<Page> *slot = pages_.find(pn);
    if (!slot)
        return nullptr;
    cachedPn_ = pn;
    cachedPage_ = slot->get();
    return cachedPage_;
}

std::uint64_t
MainMemory::read(Addr addr, unsigned size) const
{
    PARALOG_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    std::uint64_t in_page = addr & (kPageBytes - 1);
    if (in_page + size <= kPageBytes) {
        // Common case: the access stays on one page — resolve it once.
        const Page *p = pageForConst(addr);
        if (!p)
            return 0;
        std::uint64_t value = 0;
        std::memcpy(&value, p->data() + in_page, size);
        return value;
    }
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        Addr a = addr + i;
        const Page *p = pageForConst(a);
        std::uint8_t byte = p ? (*p)[a & (kPageBytes - 1)] : 0;
        value |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return value;
}

void
MainMemory::write(Addr addr, unsigned size, std::uint64_t value)
{
    PARALOG_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    std::uint64_t in_page = addr & (kPageBytes - 1);
    if (in_page + size <= kPageBytes) {
        std::memcpy(pageFor(addr).data() + in_page, &value, size);
        return;
    }
    for (unsigned i = 0; i < size; ++i) {
        Addr a = addr + i;
        pageFor(a)[a & (kPageBytes - 1)] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
}

} // namespace paralog
