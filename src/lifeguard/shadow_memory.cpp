#include "lifeguard/shadow_memory.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hpp"

namespace paralog {

// The packed/word-scan fast paths memcpy 64-bit words of the metadata
// byte array; the per-byte slow paths use little-endian bit shifts.
// Both must agree on byte order.
static_assert(std::endian::native == std::endian::little,
              "ShadowMemory word paths assume a little-endian host");

ShadowMemory::ShadowMemory(std::uint32_t bits_per_byte,
                           std::uint32_t shards)
    : bitsPerByte_(bits_per_byte)
{
    PARALOG_ASSERT(bits_per_byte == 1 || bits_per_byte == 2 ||
                       bits_per_byte == 4 || bits_per_byte == 8,
                   "unsupported metadata ratio %u", bits_per_byte);
    PARALOG_ASSERT(shards >= 1 && shards <= kMaxShards &&
                       (shards & (shards - 1)) == 0,
                   "shard count %u is not a power of two in [1, %u]",
                   shards, kMaxShards);
    valueMask_ = static_cast<std::uint8_t>((1u << bits_per_byte) - 1);
    chunkMetaBytes_ = kChunkAppBytes * bitsPerByte_ / 8;
    shardMask_ = shards - 1;
    shards_.resize(shards);
}

ShadowMemory::Chunk *
ShadowMemory::lookupChunk(Addr app_addr) const
{
    std::uint64_t idx = app_addr / kChunkAppBytes;
    Shard &sh = shardFor(idx);
    if (concurrent_) {
        // No shared last-chunk cache (it would be a cross-thread race);
        // the map itself is consulted under the shard lock. The chunk
        // pointer stays valid after unlock: chunk storage is stable.
        std::lock_guard<std::mutex> lock(sh.mapMutex);
        const std::unique_ptr<Chunk> *slot = sh.chunks.find(idx);
        return slot ? slot->get() : nullptr;
    }
    if (idx == sh.cachedIdx)
        return sh.cachedChunk;
    const std::unique_ptr<Chunk> *slot = sh.chunks.find(idx);
    if (!slot)
        return nullptr;
    sh.cachedIdx = idx;
    sh.cachedChunk = slot->get();
    return sh.cachedChunk;
}

ShadowMemory::Chunk &
ShadowMemory::ensureChunk(Addr app_addr)
{
    std::uint64_t idx = app_addr / kChunkAppBytes;
    Shard &sh = shardFor(idx);
    if (concurrent_) {
        std::lock_guard<std::mutex> lock(sh.mapMutex);
        std::unique_ptr<Chunk> &slot = sh.chunks[idx];
        if (!slot)
            slot = std::make_unique<Chunk>(chunkMetaBytes_);
        return *slot;
    }
    if (idx == sh.cachedIdx)
        return *sh.cachedChunk;
    std::unique_ptr<Chunk> &slot = sh.chunks[idx];
    if (!slot)
        slot = std::make_unique<Chunk>(chunkMetaBytes_);
    sh.cachedIdx = idx;
    sh.cachedChunk = slot.get();
    return *sh.cachedChunk;
}

std::uint8_t
ShadowMemory::patternByte(std::uint8_t value) const
{
    // Replicate the (masked) value across all metadata groups of one
    // backing byte: 0xFF / valueMask_ is 0xFF, 0x55, 0x11, 0x01 for
    // ratios 1, 2, 4, 8.
    return static_cast<std::uint8_t>((value & valueMask_) *
                                     (0xFFu / valueMask_));
}

std::uint8_t
ShadowMemory::read(Addr app_addr) const
{
    const Chunk *c = lookupChunk(app_addr);
    if (!c)
        return 0;
    std::uint64_t bit = (app_addr % kChunkAppBytes) * bitsPerByte_;
    return ((*c)[bit >> 3] >> (bit & 7)) & valueMask_;
}

void
ShadowMemory::write(Addr app_addr, std::uint8_t value)
{
    Chunk *c = lookupChunk(app_addr);
    if (!c) {
        // Chunks are zero-initialized: writing 0 to unmapped space is a
        // no-op, so e.g. clearing the metadata of untouched heap
        // allocates nothing.
        if ((value & valueMask_) == 0)
            return;
        c = &ensureChunk(app_addr);
    }
    std::uint64_t bit = (app_addr % kChunkAppBytes) * bitsPerByte_;
    std::uint8_t &byte = (*c)[bit >> 3];
    unsigned shift = bit & 7;
    byte = static_cast<std::uint8_t>(
        (byte & ~(valueMask_ << shift)) | ((value & valueMask_) << shift));
}

std::uint64_t
ShadowMemory::readPacked(Addr app_addr, unsigned bytes) const
{
    if (bytes > 8)
        bytes = 8;
    if (bytes == 0)
        return 0;
    std::uint64_t off = app_addr % kChunkAppBytes;
    if (off + bytes <= kChunkAppBytes) {
        const Chunk *c = lookupChunk(app_addr);
        if (!c)
            return 0;
        std::uint64_t bit = off * bitsPerByte_;
        std::uint64_t byte_idx = bit >> 3;
        unsigned shift = bit & 7;
        unsigned width = bytes * bitsPerByte_;
        std::uint64_t mask = (width == 64) ? ~0ULL : ((1ULL << width) - 1);
        if (concurrent_) {
            // Backing-byte-granular load: touch only the bytes the
            // field actually occupies, never a neighbour line's
            // metadata (see the header's concurrency notes). shift +
            // width <= 64 for every supported ratio, so the assembled
            // value fits one word.
            unsigned nb = (shift + width + 7) / 8;
            const std::uint8_t *d = c->data();
            std::uint64_t word = 0;
            for (unsigned i = 0; i < nb; ++i)
                word |= static_cast<std::uint64_t>(d[byte_idx + i])
                        << (8 * i);
            return (word >> shift) & mask;
        }
        // One unaligned 64-bit load covers the whole packed value: the
        // field is bytes * bitsPerByte_ <= 64 bits wide and starts at a
        // sub-byte shift of at most 8 - bitsPerByte_, which never
        // pushes it past the loaded word.
        if (byte_idx + 8 <= chunkMetaBytes_) {
            std::uint64_t word;
            std::memcpy(&word, c->data() + byte_idx, 8);
            word >>= shift;
            return word & mask;
        }
    }
    return readPackedSlow(app_addr, bytes);
}

std::uint64_t
ShadowMemory::readPackedSlow(Addr app_addr, unsigned bytes) const
{
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < bytes; ++i)
        bits |= static_cast<std::uint64_t>(read(app_addr + i))
                << (i * bitsPerByte_);
    return bits;
}

void
ShadowMemory::writePacked(Addr app_addr, unsigned bytes, std::uint64_t bits)
{
    if (bytes > 8)
        bytes = 8;
    if (bytes == 0)
        return;
    std::uint64_t off = app_addr % kChunkAppBytes;
    if (off + bytes <= kChunkAppBytes) {
        unsigned width = bytes * bitsPerByte_;
        std::uint64_t mask = (width == 64) ? ~0ULL : ((1ULL << width) - 1);
        bits &= mask;
        Chunk *c = lookupChunk(app_addr);
        if (!c) {
            if (bits == 0)
                return; // zero-write elision, as in write()
            c = &ensureChunk(app_addr);
        }
        std::uint64_t bit = off * bitsPerByte_;
        std::uint64_t byte_idx = bit >> 3;
        unsigned shift = bit & 7;
        if (concurrent_) {
            // Backing-byte-granular read-modify-write. Every touched
            // byte covers an aligned application granule overlapping
            // the accessed bytes, i.e. lines this access is ordered
            // against — a 64-bit RMW would instead clobber concurrent
            // updates to neighbour lines' metadata.
            unsigned nb = (shift + width + 7) / 8;
            std::uint8_t *d = c->data();
            std::uint64_t word = 0;
            for (unsigned i = 0; i < nb; ++i)
                word |= static_cast<std::uint64_t>(d[byte_idx + i])
                        << (8 * i);
            word = (word & ~(mask << shift)) | (bits << shift);
            for (unsigned i = 0; i < nb; ++i)
                d[byte_idx + i] =
                    static_cast<std::uint8_t>(word >> (8 * i));
            return;
        }
        if (byte_idx + 8 <= chunkMetaBytes_) {
            std::uint64_t word;
            std::memcpy(&word, c->data() + byte_idx, 8);
            word = (word & ~(mask << shift)) | (bits << shift);
            std::memcpy(c->data() + byte_idx, &word, 8);
            return;
        }
    }
    writePackedSlow(app_addr, bytes, bits);
}

void
ShadowMemory::writePackedSlow(Addr app_addr, unsigned bytes,
                              std::uint64_t bits)
{
    for (unsigned i = 0; i < bytes; ++i) {
        write(app_addr + i, static_cast<std::uint8_t>(
                                (bits >> (i * bitsPerByte_)) & valueMask_));
    }
}

bool
ShadowMemory::rangeAll(const AddrRange &range, std::uint8_t value) const
{
    return rangeFindNot(range, value) == kInvalidAddr;
}

Addr
ShadowMemory::rangeFindNot(const AddrRange &range, std::uint8_t value) const
{
    if (range.empty())
        return kInvalidAddr;
    // Stored metadata is always masked, so an out-of-range comparison
    // value matches nothing.
    if (value & ~valueMask_)
        return range.begin;
    const std::uint8_t pat = patternByte(value);
    const std::uint64_t pat64 = pat * 0x0101010101010101ULL;
    const unsigned gpb = 8 / bitsPerByte_; // metadata groups per byte

    Addr a = range.begin;
    while (a < range.end) {
        const Addr chunk_base = (a / kChunkAppBytes) * kChunkAppBytes;
        const Addr seg_end =
            std::min<Addr>(range.end, chunk_base + kChunkAppBytes);
        const Chunk *c = lookupChunk(a);
        if (!c) {
            // Unmapped space reads as 0 everywhere.
            if (value != 0)
                return a;
            a = seg_end;
            continue;
        }
        const std::uint8_t *d = c->data();
        const std::uint64_t bit0 = (a - chunk_base) * bitsPerByte_;
        const std::uint64_t bit1 = (seg_end - chunk_base) * bitsPerByte_;
        std::uint64_t b0 = bit0 >> 3;
        const std::uint64_t b1 = bit1 >> 3;
        const unsigned s0 = bit0 & 7, s1 = bit1 & 7;

        // First mismatching group in groups [g_lo, g_hi) of byte
        // byte_idx, as an app address (kInvalidAddr if none).
        auto scanByte = [&](std::uint64_t byte_idx, unsigned g_lo,
                            unsigned g_hi) -> Addr {
            for (unsigned g = g_lo; g < g_hi; ++g) {
                std::uint8_t got =
                    (d[byte_idx] >> (g * bitsPerByte_)) & valueMask_;
                if (got != value)
                    return chunk_base + byte_idx * gpb + g;
            }
            return kInvalidAddr;
        };

        if (b0 == b1) {
            // Segment confined to one backing byte.
            Addr hit =
                scanByte(b0, s0 / bitsPerByte_, s1 / bitsPerByte_);
            if (hit != kInvalidAddr)
                return hit;
            a = seg_end;
            continue;
        }
        if (s0) {
            Addr hit = scanByte(b0, s0 / bitsPerByte_, gpb);
            if (hit != kInvalidAddr)
                return hit;
            ++b0;
        }
        std::uint64_t b = b0;
        // Word-scan only in single-threaded mode: an 8-byte load reads
        // neighbour lines' metadata, racing their owning threads. The
        // byte loop below covers everything in concurrent mode.
        if (!concurrent_) {
            for (; b + 8 <= b1; b += 8) {
                std::uint64_t word;
                std::memcpy(&word, d + b, 8);
                if (word != pat64) {
                    for (unsigned k = 0; k < 8; ++k) {
                        if (d[b + k] != pat)
                            return scanByte(b + k, 0, gpb);
                    }
                }
            }
        }
        for (; b < b1; ++b) {
            if (d[b] != pat)
                return scanByte(b, 0, gpb);
        }
        if (s1) {
            Addr hit = scanByte(b1, 0, s1 / bitsPerByte_);
            if (hit != kInvalidAddr)
                return hit;
        }
        a = seg_end;
    }
    return kInvalidAddr;
}

void
ShadowMemory::fill(const AddrRange &range, std::uint8_t value)
{
    if (range.empty())
        return;
    const std::uint8_t v = value & valueMask_;
    const std::uint8_t pat = patternByte(v);

    Addr a = range.begin;
    while (a < range.end) {
        const Addr chunk_base = (a / kChunkAppBytes) * kChunkAppBytes;
        const Addr seg_end =
            std::min<Addr>(range.end, chunk_base + kChunkAppBytes);
        Chunk *c = lookupChunk(a);
        if (!c) {
            if (v == 0) { // zero-fill over untouched space: no-op
                a = seg_end;
                continue;
            }
            c = &ensureChunk(a);
        }
        std::uint8_t *d = c->data();
        const std::uint64_t bit0 = (a - chunk_base) * bitsPerByte_;
        const std::uint64_t bit1 = (seg_end - chunk_base) * bitsPerByte_;
        std::uint64_t b0 = bit0 >> 3;
        const std::uint64_t b1 = bit1 >> 3;
        const unsigned s0 = bit0 & 7, s1 = bit1 & 7;

        if (b0 == b1) {
            // Sub-byte segment: mask-merge bits [s0, s1).
            std::uint8_t m =
                static_cast<std::uint8_t>(((1u << (s1 - s0)) - 1) << s0);
            d[b0] = (d[b0] & ~m) | (pat & m);
            a = seg_end;
            continue;
        }
        if (s0) {
            std::uint8_t m = static_cast<std::uint8_t>(0xFFu << s0);
            d[b0] = (d[b0] & ~m) | (pat & m);
            ++b0;
        }
        if (b1 > b0)
            std::memset(d + b0, pat, b1 - b0);
        if (s1) {
            std::uint8_t m = static_cast<std::uint8_t>((1u << s1) - 1);
            d[b1] = (d[b1] & ~m) | (pat & m);
        }
        a = seg_end;
    }
}

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/** kFnvPrime^n mod 2^64: the FNV-1a step over n zero values. */
std::uint64_t
fnvPrimePow(std::uint64_t n)
{
    std::uint64_t r = 1;
    for (std::uint64_t b = kFnvPrime; n; n >>= 1, b *= b) {
        if (n & 1)
            r *= b;
    }
    return r;
}

} // namespace

std::uint64_t
shadowFingerprint(const ShadowMemory &shadow, Addr base,
                  std::uint64_t bytes)
{
    // FNV-1a over shadow.read(a) for every a in the range, read straight
    // from the chunk bytes. A zero value only multiplies by the prime,
    // so a zero backing byte, word or unmapped chunk is one
    // multiplication by a power of it.
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    const unsigned bpb = shadow.bitsPerByte();
    const unsigned gpb = 8 / bpb; // app bytes per backing byte
    const std::uint8_t mask = static_cast<std::uint8_t>((1u << bpb) - 1);
    const std::uint64_t zero_byte = fnvPrimePow(gpb);
    const std::uint64_t zero_word = fnvPrimePow(8 * gpb);

    std::uint64_t h = kFnvOffset;
    const Addr end = base + bytes;
    Addr a = base;
    while (a < end) {
        const Addr chunk_base = a - a % kChunk;
        const Addr seg_end = std::min<Addr>(end, chunk_base + kChunk);
        const std::uint8_t *d = shadow.chunkBytes(a);
        if (!d) {
            h *= fnvPrimePow(seg_end - a);
            a = seg_end;
            continue;
        }
        auto hashOne = [&](Addr x) {
            std::uint64_t bit = (x - chunk_base) * bpb;
            h ^= (d[bit >> 3] >> (bit & 7)) & mask;
            h *= kFnvPrime;
        };
        while (a < seg_end && (a - chunk_base) % (8 * gpb) != 0)
            hashOne(a++);
        for (; a + 8 * gpb <= seg_end; a += 8 * gpb) {
            const std::uint8_t *w = d + (a - chunk_base) / gpb;
            std::uint64_t word;
            std::memcpy(&word, w, 8);
            if (word == 0) {
                h *= zero_word;
                continue;
            }
            for (unsigned k = 0; k < 8; ++k) {
                if (w[k] == 0) {
                    h *= zero_byte;
                    continue;
                }
                for (unsigned g = 0; g < gpb; ++g) {
                    h ^= (w[k] >> (g * bpb)) & mask;
                    h *= kFnvPrime;
                }
            }
        }
        while (a < seg_end)
            hashOne(a++);
    }
    return h;
}

} // namespace paralog
