/**
 * @file
 * Randomized differential suite for the word-wise ShadowMemory fast
 * paths: every operation is checked against a naive per-byte reference
 * model (the semantics of the original implementation) across all four
 * metadata ratios, unaligned ranges, chunk-boundary crossings and the
 * zero-write elision — and, for the sharded chunk table, against the
 * legacy single-shard layout (which must stay bit-identical for every
 * shard count, all the way up to whole-run lifeguard fingerprints).
 * shadowFingerprint's chunk-wise hash is checked against its
 * byte-by-byte FNV-1a definition.
 */

#include <algorithm>
#include <array>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "harness/paralog_test.hpp"
#include "lifeguard/shadow_memory.hpp"

namespace paralog {
namespace {

/** Naive reference: one masked metadata value per app byte. */
class RefShadow
{
  public:
    explicit RefShadow(std::uint32_t bpb)
        : bpb_(bpb), mask_(static_cast<std::uint8_t>((1u << bpb) - 1))
    {
    }

    std::uint8_t
    read(Addr a) const
    {
        auto it = bytes_.find(a);
        return it == bytes_.end() ? 0 : it->second;
    }

    void write(Addr a, std::uint8_t v) { bytes_[a] = v & mask_; }

    std::uint64_t
    readPacked(Addr a, unsigned n) const
    {
        std::uint64_t bits = 0;
        for (unsigned i = 0; i < n && i < 8; ++i)
            bits |= static_cast<std::uint64_t>(read(a + i)) << (i * bpb_);
        return bits;
    }

    void
    writePacked(Addr a, unsigned n, std::uint64_t bits)
    {
        for (unsigned i = 0; i < n && i < 8; ++i)
            write(a + i, static_cast<std::uint8_t>((bits >> (i * bpb_)) &
                                                   mask_));
    }

    void
    fill(const AddrRange &r, std::uint8_t v)
    {
        for (Addr a = r.begin; a < r.end; ++a)
            write(a, v);
    }

    Addr
    rangeFindNot(const AddrRange &r, std::uint8_t v) const
    {
        for (Addr a = r.begin; a < r.end; ++a) {
            if (read(a) != v)
                return a;
        }
        return kInvalidAddr;
    }

  private:
    std::uint32_t bpb_;
    std::uint8_t mask_;
    std::map<Addr, std::uint8_t> bytes_;
};

class ShadowFastPath : public ::testing::TestWithParam<std::uint32_t>
{
};

/// Address pool biased toward interesting spots: chunk boundaries,
/// byte-subgroup offsets, and plain interior addresses.
Addr
pickAddr(Rng &rng)
{
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    switch (rng.below(4)) {
      case 0: // near the first chunk boundary
        return kChunk - 16 + rng.below(32);
      case 1: // near a later chunk boundary
        return 3 * kChunk - 16 + rng.below(32);
      case 2: // small addresses (first chunk)
        return rng.below(512);
      default: // anywhere in a 4-chunk window
        return rng.below(4 * kChunk);
    }
}

TEST_P(ShadowFastPath, RandomizedDifferential)
{
    const std::uint32_t bpb = GetParam();
    ShadowMemory s(bpb);
    RefShadow ref(bpb);
    Rng rng(0xC0FFEE ^ bpb);

    for (int i = 0; i < 20000; ++i) {
        Addr a = pickAddr(rng);
        switch (rng.below(6)) {
          case 1: {
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(256));
            s.write(a, v);
            ref.write(a, v);
            break;
          }
          case 2: {
            unsigned n = static_cast<unsigned>(rng.range(1, 8));
            std::uint64_t bits = rng.next();
            s.writePacked(a, n, bits);
            ref.writePacked(a, n, bits);
            break;
          }
          case 3: {
            std::uint64_t len = rng.range(0, 300);
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(4));
            s.fill(AddrRange{a, a + len}, v);
            ref.fill(AddrRange{a, a + len}, v);
            break;
          }
          case 4: {
            unsigned n = static_cast<unsigned>(rng.range(1, 8));
            ASSERT_EQ(s.readPacked(a, n), ref.readPacked(a, n))
                << "readPacked @" << a << " n=" << n;
            break;
          }
          case 5: {
            std::uint64_t len = rng.range(0, 300);
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(4));
            AddrRange r{a, a + len};
            ASSERT_EQ(s.rangeFindNot(r, v), ref.rangeFindNot(r, v))
                << "rangeFindNot @" << a << " len=" << len;
            ASSERT_EQ(s.rangeAll(r, v),
                      ref.rangeFindNot(r, v) == kInvalidAddr);
            break;
          }
          default:
            ASSERT_EQ(s.read(a), ref.read(a)) << "read @" << a;
            break;
        }
    }

    // Full sweep at the end: every byte of the exercised window agrees.
    for (Addr a = 0; a < 600; ++a)
        ASSERT_EQ(s.read(a), ref.read(a)) << "sweep @" << a;
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    for (Addr a = kChunk - 64; a < kChunk + 64; ++a)
        ASSERT_EQ(s.read(a), ref.read(a)) << "boundary sweep @" << a;
}

TEST_P(ShadowFastPath, LargeFillMatchesReference)
{
    const std::uint32_t bpb = GetParam();
    ShadowMemory s(bpb);
    RefShadow ref(bpb);

    // A multi-chunk unaligned fill followed by unaligned re-fills.
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    AddrRange big{kChunk - 1000, 2 * kChunk + 1000};
    s.fill(big, 1);
    ref.fill(big, 1);
    AddrRange inner{kChunk - 3, kChunk + 5};
    s.fill(inner, 0);
    ref.fill(inner, 0);

    EXPECT_EQ(s.rangeFindNot(big, 1), ref.rangeFindNot(big, 1));
    for (Addr a = big.begin - 8; a < big.begin + 16; ++a)
        ASSERT_EQ(s.read(a), ref.read(a));
    for (Addr a = kChunk - 8; a < kChunk + 8; ++a)
        ASSERT_EQ(s.read(a), ref.read(a));
    for (Addr a = big.end - 16; a < big.end + 8; ++a)
        ASSERT_EQ(s.read(a), ref.read(a));
}

TEST_P(ShadowFastPath, ZeroWriteElision)
{
    ShadowMemory s(GetParam());
    EXPECT_EQ(s.bytesAllocated(), 0u);

    // Zero writes and zero fills over untouched space allocate nothing.
    s.write(0x5000, 0);
    s.writePacked(0x6000, 8, 0);
    s.fill(AddrRange{0, 4 * ShadowMemory::kChunkAppBytes}, 0);
    EXPECT_EQ(s.chunkCount(), 0u);
    EXPECT_EQ(s.bytesAllocated(), 0u);
    EXPECT_TRUE(s.rangeAll(AddrRange{0x5000, 0x7000}, 0));

    // A non-zero write allocates exactly one chunk...
    s.write(0x5000, 1);
    EXPECT_EQ(s.chunkCount(), 1u);
    std::uint64_t one = s.bytesAllocated();
    EXPECT_EQ(one, ShadowMemory::kChunkAppBytes * GetParam() / 8);

    // ...and zero writes into a *mapped* chunk really clear metadata.
    s.write(0x5000, 0);
    EXPECT_EQ(s.read(0x5000), 0u);
    EXPECT_EQ(s.bytesAllocated(), one);
}

TEST_P(ShadowFastPath, OutOfMaskComparisonNeverMatches)
{
    const std::uint32_t bpb = GetParam();
    if (bpb == 8)
        GTEST_SKIP() << "all 8-bit values are in-mask";
    ShadowMemory s(bpb);
    s.fill(AddrRange{0x100, 0x140}, 1);
    // Stored metadata is masked, so comparing against an out-of-range
    // value reports the first byte (legacy per-byte semantics).
    std::uint8_t big = static_cast<std::uint8_t>((1u << bpb));
    EXPECT_EQ(s.rangeFindNot(AddrRange{0x100, 0x140}, big), 0x100u);
    EXPECT_FALSE(s.rangeAll(AddrRange{0x100, 0x140}, big));
}

/** The fingerprint's definition: FNV-1a of read(a), one app byte at a
 *  time. */
std::uint64_t
byteByByteFingerprint(const ShadowMemory &s, Addr base, std::uint64_t bytes)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (Addr a = base; a < base + bytes; ++a) {
        h ^= s.read(a);
        h *= 1099511628211ULL;
    }
    return h;
}

TEST_P(ShadowFastPath, FingerprintMatchesByteByByteDefinition)
{
    const std::uint32_t bpb = GetParam();
    const std::uint64_t vmax = (1u << bpb) - 1;
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    Rng rng(0xF1A6E ^ bpb);

    for (int shadow = 0; shadow < 80; ++shadow) {
        // Chunks 0, 1 and 3 get sparse writes and dense fills; chunk 2
        // stays unmapped.
        ShadowMemory s(bpb);
        auto pickMapped = [&] {
            Addr chunk = std::array<Addr, 3>{0, 1, 3}[rng.below(3)];
            return chunk * kChunk + rng.below(kChunk);
        };
        for (int i = 0; i < 200; ++i) {
            Addr a = pickMapped();
            if (rng.below(8) == 0) {
                Addr end = std::min<Addr>(a + rng.below(4096),
                                          (a / kChunk + 1) * kChunk);
                s.fill(AddrRange{a, end},
                       static_cast<std::uint8_t>(rng.range(0, vmax)));
            } else {
                s.write(a, static_cast<std::uint8_t>(rng.range(0, vmax)));
            }
        }
        // Dense metadata right at the boundaries the ranges straddle.
        s.fill(AddrRange{kChunk - 40, kChunk + 40},
               static_cast<std::uint8_t>(rng.range(1, vmax)));
        s.fill(AddrRange{3 * kChunk, 3 * kChunk + 24},
               static_cast<std::uint8_t>(rng.range(1, vmax)));
        ASSERT_EQ(s.chunkBytes(2 * kChunk), nullptr);

        std::vector<std::pair<Addr, std::uint64_t>> ranges = {
            {kChunk - rng.below(20000), rng.below(40000)},
            {2 * kChunk - rng.below(20000), rng.below(40000)},
            {3 * kChunk - rng.below(20000), rng.below(40000)},
            {rng.below(4 * kChunk), rng.below(300)},
            {rng.below(64), 0},
        };
        if (shadow % 10 == 0) // one span over all four chunks
            ranges.emplace_back(rng.below(100), 4 * kChunk);
        for (auto [base, bytes] : ranges) {
            ASSERT_EQ(shadowFingerprint(s, base, bytes),
                      byteByByteFingerprint(s, base, bytes))
                << "shadow " << shadow << " range @" << base << " +"
                << bytes;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Ratios, ShadowFastPath,
                         ::testing::Values(1u, 2u, 4u, 8u));

// ------------------------------------------------ sharded chunk table

/** (bits per byte, shard count). */
class ShadowSharding
    : public ::testing::TestWithParam<std::tuple<std::uint32_t,
                                                 std::uint32_t>>
{
};

TEST_P(ShadowSharding, DifferentialAgainstLegacyAndReference)
{
    const auto [bpb, shards] = GetParam();
    ShadowMemory sharded(bpb, shards);
    ShadowMemory legacy(bpb, 1); // the unsharded layout
    RefShadow ref(bpb);
    Rng rng(0xBEEF00 ^ (bpb << 8) ^ shards);

    EXPECT_EQ(sharded.shardCount(), shards);
    EXPECT_EQ(legacy.shardCount(), 1u);

    for (int i = 0; i < 12000; ++i) {
        Addr a = pickAddr(rng);
        switch (rng.below(6)) {
          case 1: {
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(256));
            sharded.write(a, v);
            legacy.write(a, v);
            ref.write(a, v);
            break;
          }
          case 2: {
            unsigned n = static_cast<unsigned>(rng.range(1, 8));
            std::uint64_t bits = rng.next();
            sharded.writePacked(a, n, bits);
            legacy.writePacked(a, n, bits);
            ref.writePacked(a, n, bits);
            break;
          }
          case 3: {
            std::uint64_t len = rng.range(0, 300);
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(4));
            sharded.fill(AddrRange{a, a + len}, v);
            legacy.fill(AddrRange{a, a + len}, v);
            ref.fill(AddrRange{a, a + len}, v);
            break;
          }
          case 4: {
            unsigned n = static_cast<unsigned>(rng.range(1, 8));
            std::uint64_t want = ref.readPacked(a, n);
            ASSERT_EQ(sharded.readPacked(a, n), want)
                << "sharded readPacked @" << a << " n=" << n;
            ASSERT_EQ(legacy.readPacked(a, n), want);
            break;
          }
          case 5: {
            std::uint64_t len = rng.range(0, 300);
            std::uint8_t v = static_cast<std::uint8_t>(rng.below(4));
            AddrRange r{a, a + len};
            Addr want = ref.rangeFindNot(r, v);
            ASSERT_EQ(sharded.rangeFindNot(r, v), want)
                << "sharded rangeFindNot @" << a << " len=" << len;
            ASSERT_EQ(legacy.rangeFindNot(r, v), want);
            ASSERT_EQ(sharded.rangeAll(r, v), want == kInvalidAddr);
            break;
          }
          default:
            ASSERT_EQ(sharded.read(a), ref.read(a))
                << "sharded read @" << a;
            ASSERT_EQ(legacy.read(a), sharded.read(a));
            break;
        }
    }

    // The sharded layout allocates the same chunks (just distributed
    // over shard maps) and must fingerprint identically to the legacy
    // layout over the whole exercised window.
    EXPECT_EQ(sharded.chunkCount(), legacy.chunkCount());
    EXPECT_EQ(sharded.bytesAllocated(), legacy.bytesAllocated());
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;
    EXPECT_EQ(test::shadowFingerprint(sharded, 0, 1024),
              test::shadowFingerprint(legacy, 0, 1024));
    EXPECT_EQ(test::shadowFingerprint(sharded, kChunk - 256, 512),
              test::shadowFingerprint(legacy, kChunk - 256, 512));
    EXPECT_EQ(test::shadowFingerprint(sharded, 3 * kChunk - 256, 512),
              test::shadowFingerprint(legacy, 3 * kChunk - 256, 512));
}

TEST_P(ShadowSharding, ZeroWriteElisionPerShard)
{
    const auto [bpb, shards] = GetParam();
    ShadowMemory s(bpb, shards);
    constexpr Addr kChunk = ShadowMemory::kChunkAppBytes;

    // Zero traffic over many chunks (landing in every shard) allocates
    // nothing, regardless of shard count.
    s.fill(AddrRange{0, 16 * kChunk}, 0);
    for (unsigned c = 0; c < 16; ++c)
        s.write(c * kChunk + 5, 0);
    EXPECT_EQ(s.chunkCount(), 0u);
    EXPECT_EQ(s.bytesAllocated(), 0u);

    // One non-zero write per chunk allocates exactly one chunk each,
    // and the totals aggregate correctly across shard maps.
    for (unsigned c = 0; c < 16; ++c)
        s.write(c * kChunk + 5, 1);
    EXPECT_EQ(s.chunkCount(), 16u);
    EXPECT_EQ(s.bytesAllocated(), 16u * kChunk * bpb / 8);
}

INSTANTIATE_TEST_SUITE_P(
    RatiosTimesShards, ShadowSharding,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 2u, 4u, 8u)));

// ----------------------------- whole-run fingerprints, all lifeguards

/**
 * The end-to-end guarantee the tentpole rides on: a full platform run
 * reaches bit-identical analysis conclusions (shadow fingerprints) for
 * every shard count, for all four lifeguards.
 */
class ShardedLifeguardRuns
    : public test::QuietTestWithParam<LifeguardKind>
{
};

TEST_P(ShardedLifeguardRuns, FingerprintIdenticalAcrossShardCounts)
{
    const LifeguardKind lg = GetParam();
    std::uint64_t baseline_fp = 0;
    std::uint64_t baseline_cycles = 0;
    for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
        ExperimentOptions opt = opts(1200);
        opt.shadowShards = shards;
        PlatformConfig cfg = makeConfig(WorkloadKind::kLu, lg,
                                        MonitorMode::kParallel, 2, opt);
        Platform p(cfg);
        RunResult r = p.run();
        ASSERT_EQ(p.lifeguard().shadow().shardCount(), shards);
        std::uint64_t fp =
            test::shadowFingerprint(p.lifeguard().shadow(),
                                    AddressLayout::kHeapBase, 1 << 20) ^
            test::shadowFingerprint(p.lifeguard().shadow(),
                                    AddressLayout::kGlobalBase, 1 << 16);
        if (shards == 1) {
            baseline_fp = fp;
            baseline_cycles = r.totalCycles;
        } else {
            EXPECT_EQ(fp, baseline_fp) << "shards=" << shards;
            EXPECT_EQ(r.totalCycles, baseline_cycles)
                << "shards=" << shards;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllLifeguards, ShardedLifeguardRuns,
                         ::testing::Values(LifeguardKind::kAddrCheck,
                                           LifeguardKind::kTaintCheck,
                                           LifeguardKind::kMemCheck,
                                           LifeguardKind::kLockSet));

} // namespace
} // namespace paralog
