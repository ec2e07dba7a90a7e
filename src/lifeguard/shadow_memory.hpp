/**
 * @file
 * Two-level shadow (metadata) memory, as described in section 6: a
 * first-level chunk table indexed by the high application address bits,
 * with metadata chunks allocated lazily when the corresponding virtual
 * space is first used.
 *
 * The metadata-to-data ratio is configurable (1, 2, 4 or 8 bits per
 * application byte: AddrCheck uses 1, TaintCheck uses 2). Metadata bytes
 * live at a modelled virtual address (metaAddr) so lifeguard cache
 * behaviour can be simulated.
 *
 * The layout satisfies condition 3 of section 5.3 (no bit-manipulation
 * races): metadata bytes covering different 64-byte application lines
 * never share a byte, because 64 app bytes map to >= 8 metadata bytes.
 *
 * Hot-path design (this is the most-executed data structure in the
 * simulator):
 *  - the chunk table is consulted once per access/range, not once per
 *    byte, and the most recent chunk is cached so sequential access
 *    streams skip the hash lookup entirely;
 *  - packed accesses load/store one 64-bit word of metadata directly;
 *  - fill() writes whole bytes via std::memset (with masked edge bytes
 *    for sub-byte ratios) instead of per-byte read-modify-write;
 *  - rangeFindNot()/rangeAll() scan 64-bit words;
 *  - writes of metadata value 0 to an unmapped chunk are elided: chunks
 *    are zero-initialized, so fill(range, 0) over untouched address
 *    space allocates nothing;
 *  - chunks are ZeroPages storage: a new chunk writes none of its bytes,
 *    and a run commits only the metadata pages it touches.
 *
 * Sharding: the chunk table can be split into a power-of-two number of
 * shards, selected by the low bits of the chunk index (so consecutive
 * 1 MB chunks land in different shards). Each shard owns its chunk map
 * *and* its last-chunk cache, making shards fully self-contained: with
 * one shard per lifeguard thread, threads working disjoint address
 * ranges stop serializing on a single structure. The shard count is
 * invisible to results — chunk layout, metaAddr and all operation
 * semantics are unchanged, so any shard count produces bit-identical
 * metadata (and fingerprints) to the unsharded layout.
 *
 * Concurrent mode (setConcurrent): when lifeguard cores run on separate
 * host threads, chunk-map lookups/inserts take a per-shard mutex, the
 * shared last-chunk caches are bypassed, and the packed fast paths drop
 * from word-granular to backing-byte-granular memory operations. The
 * byte granularity is what makes unlocked metadata access sound: one
 * backing byte covers 8/bitsPerByte consecutive aligned application
 * bytes, which always lie inside a single 64-byte application line
 * (condition 3 of section 5.3) — so two threads touch the same backing
 * byte only when they access the same line, and same-line accesses are
 * ordered by the delivery protocol (dependence arcs / versioning),
 * with the progress table providing the release/acquire edge. The
 * 64-bit word paths would break exactly that: an unaligned word RMW
 * spans up to 64 application bytes of metadata, clobbering neighbour
 * lines owned by other threads.
 */

#ifndef PARALOG_LIFEGUARD_SHADOW_MEMORY_HPP
#define PARALOG_LIFEGUARD_SHADOW_MEMORY_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "common/zero_pages.hpp"

namespace paralog {

class ShadowMemory;

/**
 * FNV-1a hash of the shadow metadata over [base, base + bytes): the
 * canonical "did two runs reach the same analysis conclusions?"
 * fingerprint, shared by the equivalence test suites and the trace
 * record/replay self-check.
 */
std::uint64_t shadowFingerprint(const ShadowMemory &shadow, Addr base,
                                std::uint64_t bytes);

class ShadowMemory
{
  public:
    /// Application bytes covered by one metadata chunk.
    static constexpr std::uint64_t kChunkAppBytes = 1ULL << 20;

    /// Base of the modelled metadata virtual address region.
    static constexpr Addr kMetaBase = 1ULL << 40;

    /// Largest accepted shard count (a shard is a map + a cache line of
    /// state; 256 covers any plausible lifeguard thread count).
    static constexpr std::uint32_t kMaxShards = 256;

    explicit ShadowMemory(std::uint32_t bits_per_byte,
                          std::uint32_t shards = 1);

    std::uint32_t bitsPerByte() const { return bitsPerByte_; }
    std::uint32_t shardCount() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    /**
     * Switch between the single-threaded fast paths (default) and the
     * concurrent-safe paths (see the file comment). Results are
     * bit-identical either way; only the host-level memory operations
     * differ. Must be called while no other thread is accessing the
     * shadow.
     */
    void setConcurrent(bool on) { concurrent_ = on; }
    bool concurrent() const { return concurrent_; }

    /** Metadata value (bitsPerByte wide) for one application byte. */
    std::uint8_t read(Addr app_addr) const;
    void write(Addr app_addr, std::uint8_t value);

    /** Pack the metadata of @p bytes consecutive app bytes (<= 8). */
    std::uint64_t readPacked(Addr app_addr, unsigned bytes) const;
    void writePacked(Addr app_addr, unsigned bytes, std::uint64_t bits);

    /** True iff every byte in [range) has metadata == value. */
    bool rangeAll(const AddrRange &range, std::uint8_t value) const;

    /** First app byte in [range) with metadata != value, else
     *  kInvalidAddr. */
    Addr rangeFindNot(const AddrRange &range, std::uint8_t value) const;

    void fill(const AddrRange &range, std::uint8_t value);

    /** Modelled virtual address of the metadata for @p app_addr. */
    Addr
    metaAddr(Addr app_addr) const
    {
        return kMetaBase + (app_addr * bitsPerByte_) / 8;
    }

    std::size_t
    chunkCount() const
    {
        std::size_t n = 0;
        for (const Shard &s : shards_)
            n += s.chunks.size();
        return n;
    }

    /** Backing-store bytes actually allocated for metadata chunks
     *  (observes the zero-write elision: filling untouched space with
     *  value 0 allocates nothing). */
    std::uint64_t bytesAllocated() const
    {
        return chunkCount() * chunkMetaBytes_;
    }

    /** Backing metadata bytes of the chunk covering @p app_addr (the
     *  chunk's first application byte maps to element 0), or nullptr
     *  when the chunk is unmapped. */
    const std::uint8_t *
    chunkBytes(Addr app_addr) const
    {
        const Chunk *c = lookupChunk(app_addr);
        return c ? c->data() : nullptr;
    }

  private:
    using Chunk = ZeroPages<std::uint8_t>;

    /**
     * One shard of the chunk table: its slice of the chunk map plus its
     * own last-chunk cache. Chunk storage is stable (chunks never
     * resize, unique_ptr targets never move), so a cached pointer stays
     * valid for the lifetime of the ShadowMemory. Caches are mutable so
     * const readers benefit from the sequential-access common case too.
     */
    struct Shard
    {
        FlatAddrMap<std::unique_ptr<Chunk>> chunks;
        mutable std::uint64_t cachedIdx = ~0ULL;
        mutable Chunk *cachedChunk = nullptr;
        /// Concurrent mode only: guards the chunk map (find/insert).
        /// Chunk *contents* are unlocked — backing-byte granularity
        /// plus protocol ordering make that race-free.
        mutable std::mutex mapMutex;
    };

    Shard &
    shardFor(std::uint64_t chunk_idx) const
    {
        return shards_[chunk_idx & shardMask_];
    }

    /** The mapped chunk covering @p app_addr, or nullptr. Refreshes the
     *  owning shard's last-chunk cache on a hash-table hit. */
    Chunk *lookupChunk(Addr app_addr) const;

    /** The chunk covering @p app_addr, allocating (and caching) it. */
    Chunk &ensureChunk(Addr app_addr);

    /** Replicate a metadata value across one backing byte. */
    std::uint8_t patternByte(std::uint8_t value) const;

    std::uint64_t readPackedSlow(Addr app_addr, unsigned bytes) const;
    void writePackedSlow(Addr app_addr, unsigned bytes, std::uint64_t bits);

    std::uint32_t bitsPerByte_;
    std::uint8_t valueMask_;
    std::uint64_t chunkMetaBytes_;
    std::uint64_t shardMask_;
    bool concurrent_ = false;
    /// deque, not vector: Shard owns a mutex and must never move.
    mutable std::deque<Shard> shards_;
};

} // namespace paralog

#endif // PARALOG_LIFEGUARD_SHADOW_MEMORY_HPP
