#include "mem/cache.hpp"

#include "common/bitops.hpp"
#include "common/logging.hpp"

namespace paralog {

/** Line count of @p params, checked before any storage is mapped. */
static std::uint64_t
checkedLineCount(const CacheParams &params, const std::string &name)
{
    PARALOG_ASSERT(isPowerOf2(params.lineBytes), "line size must be 2^k");
    std::uint64_t lines_total = params.sizeBytes / params.lineBytes;
    PARALOG_ASSERT(lines_total % params.assoc == 0,
                   "size/assoc mismatch in cache %s", name.c_str());
    return lines_total;
}

Cache::Cache(const CacheParams &params, std::string name)
    : params_(params), name_(std::move(name)),
      lines_(checkedLineCount(params_, name_))
{
    numSets_ = static_cast<std::uint32_t>(lines_.size() / params_.assoc);
    PARALOG_ASSERT(isPowerOf2(numSets_), "set count must be 2^k");
    lineShift_ = floorLog2(params_.lineBytes);
    lineMask_ = params_.lineBytes - 1;
}

std::uint32_t
Cache::setIndex(Addr addr) const
{
    return static_cast<std::uint32_t>(
        (addr >> lineShift_) & (numSets_ - 1));
}

CacheLine *
Cache::lookup(Addr addr)
{
    CacheLine *line = probe(addr);
    if (line) {
        line->lruStamp = ++lruClock_;
        ++hits;
    } else {
        ++misses;
    }
    return line;
}

CacheLine *
Cache::probe(Addr addr)
{
    Addr la = lineAddr(addr);
    std::uint32_t set = setIndex(addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (base[w].valid() && base[w].tag == la)
            return &base[w];
    }
    return nullptr;
}

const CacheLine *
Cache::probe(Addr addr) const
{
    return const_cast<Cache *>(this)->probe(addr);
}

CacheLine &
Cache::insert(Addr addr, LineState state, Victim *victim)
{
    if (victim)
        victim->valid = false;
    Addr la = lineAddr(addr);
    std::uint32_t set = setIndex(addr);
    CacheLine *base = &lines_[static_cast<std::size_t>(set) * params_.assoc];
    CacheLine *slot = nullptr;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (!base[w].valid()) {
            slot = &base[w];
            break;
        }
    }
    if (!slot) {
        // Evict the LRU way.
        slot = &base[0];
        for (std::uint32_t w = 1; w < params_.assoc; ++w) {
            if (base[w].lruStamp < slot->lruStamp)
                slot = &base[w];
        }
        if (victim) {
            victim->valid = true;
            victim->lineAddr = slot->tag;
            victim->state = slot->state;
        }
        ++evictions;
    }
    slot->tag = la;
    slot->state = state;
    slot->lruStamp = ++lruClock_;
    slot->lastAccess = BlockTag{};
    return *slot;
}

void
Cache::invalidate(Addr addr)
{
    if (CacheLine *line = probe(addr))
        line->state = LineState::kInvalid;
}

void
Cache::flushAll()
{
    // Write only valid lines: never-touched pages stay uncommitted.
    for (CacheLine &line : lines_) {
        if (line.valid())
            line.state = LineState::kInvalid;
    }
}

} // namespace paralog
