/**
 * @file
 * Unit suite for the lock-free SPSC ring that carries event records
 * between the concurrent replay engine's producer and each lifeguard
 * consumer thread (common/spsc_ring.hpp), plus the watchdog
 * stall-signature sampling contract: everything the concurrent
 * supervisor reads cross-thread must be an atomic, so these tests run
 * under -fsanitize=thread in CI (the `tsan` ctest label).
 */

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/spsc_ring.hpp"
#include "common/stats.hpp"
#include "core/serial_scheduler.hpp"
#include "deliver/progress_table.hpp"

namespace paralog {
namespace {

TEST(SpscRing, StartsEmpty)
{
    SpscRing<int> ring(4);
    EXPECT_EQ(ring.capacity(), 4u);
    EXPECT_EQ(ring.front(), nullptr);
    EXPECT_TRUE(ring.consumerEmpty());
    EXPECT_EQ(ring.published(), 0u);
    EXPECT_EQ(ring.popped(), 0u);
    EXPECT_EQ(ring.pushed(), 0u);
    EXPECT_EQ(ring.freeSpace(), 4u);
}

TEST(SpscRing, StagedPushesAreInvisibleUntilPublish)
{
    SpscRing<int> ring(8);
    EXPECT_TRUE(ring.tryPush(1));
    EXPECT_TRUE(ring.tryPush(2));
    EXPECT_EQ(ring.pushed(), 2u);
    // The batch horizon: nothing is visible until publish().
    EXPECT_EQ(ring.front(), nullptr);
    EXPECT_EQ(ring.published(), 0u);

    ring.publish();
    EXPECT_EQ(ring.published(), 2u);
    ASSERT_NE(ring.front(), nullptr);
    EXPECT_EQ(*ring.front(), 1);
    ring.pop();
    ASSERT_NE(ring.front(), nullptr);
    EXPECT_EQ(*ring.front(), 2);
    ring.pop();
    EXPECT_EQ(ring.front(), nullptr);
    EXPECT_EQ(ring.popped(), 2u);
}

TEST(SpscRing, PublishMakesTheWholeBatchVisibleAtOnce)
{
    // A ConflictAlert arrival and its bookkeeping record must appear to
    // the consumer atomically: publish after staging both.
    SpscRing<int> ring(8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(ring.tryPush(int(i)));
    EXPECT_EQ(ring.front(), nullptr);
    ring.publish();
    for (int i = 0; i < 5; ++i) {
        ASSERT_NE(ring.front(), nullptr);
        EXPECT_EQ(*ring.front(), i);
        ring.pop();
    }
    EXPECT_EQ(ring.front(), nullptr);
}

TEST(SpscRing, FullBoundary)
{
    SpscRing<int> ring(4);
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(ring.tryPush(int(i)));
    // Full: the next push fails until the consumer frees a slot.
    EXPECT_FALSE(ring.tryPush(99));
    EXPECT_EQ(ring.freeSpace(), 0u);
    ring.publish();

    ASSERT_NE(ring.front(), nullptr);
    ring.pop();
    EXPECT_TRUE(ring.tryPush(4));
    EXPECT_FALSE(ring.tryPush(99));
    ring.publish();

    int expect = 1;
    while (ring.front() != nullptr) {
        EXPECT_EQ(*ring.front(), expect++);
        ring.pop();
    }
    EXPECT_EQ(expect, 5);
}

TEST(SpscRing, WraparoundPreservesFifoOrder)
{
    // Many times the capacity, odd batch sizes: every slot index wraps
    // repeatedly and order must survive.
    SpscRing<std::uint64_t> ring(8);
    std::uint64_t next_push = 0, next_pop = 0;
    const std::uint64_t total = 1000;
    while (next_pop < total) {
        for (int b = 0; b < 3 && next_push < total; ++b) {
            if (!ring.tryPush(std::uint64_t(next_push)))
                break;
            ++next_push;
        }
        ring.publish();
        while (std::uint64_t *v = ring.front()) {
            ASSERT_EQ(*v, next_pop);
            ring.pop();
            ++next_pop;
        }
    }
    EXPECT_EQ(ring.popped(), total);
    EXPECT_EQ(ring.published(), total);
}

TEST(SpscRing, FrontPointerStableAcrossRepeatedCalls)
{
    SpscRing<int> ring(4);
    ASSERT_TRUE(ring.tryPush(7));
    ring.publish();
    int *a = ring.front();
    int *b = ring.front();
    EXPECT_EQ(a, b);
    EXPECT_EQ(*a, 7);
}

TEST(SpscRing, CrossThreadStressKeepsOrderAndCounts)
{
    // Producer stages in irregular batches and publishes; consumer spins
    // on front(). Under TSan this doubles as the data-race proof for
    // the hand-off protocol (release publish / acquire front).
    SpscRing<std::uint64_t> ring(16);
    const std::uint64_t total = 200'000;

    std::thread producer([&] {
        std::uint64_t v = 0;
        while (v < total) {
            std::uint64_t staged = 0;
            while (staged < 1 + (v % 7) && v < total &&
                   ring.tryPush(std::uint64_t(v))) {
                ++v;
                ++staged;
            }
            if (staged > 0)
                ring.publish();
            else
                std::this_thread::yield();
        }
    });

    std::uint64_t expect = 0;
    std::uint64_t spins = 0;
    while (expect < total) {
        std::uint64_t *v = ring.front();
        if (!v) {
            if ((++spins & 0xFFF) == 0)
                std::this_thread::yield();
            continue;
        }
        ASSERT_EQ(*v, expect);
        ring.pop();
        ++expect;
    }
    producer.join();
    EXPECT_EQ(ring.published(), total);
    EXPECT_EQ(ring.popped(), total);
    EXPECT_EQ(ring.front(), nullptr);
}

TEST(SpscRing, CountersReadableFromAThirdThread)
{
    // published()/popped() are the supervisor's stall-signature inputs:
    // a third thread hammers them while the SPSC pair runs. TSan
    // verifies the contract that they are safe from either side (and,
    // in effect, from a watchdog thread that owns neither role).
    SpscRing<std::uint64_t> ring(8);
    const std::uint64_t total = 50'000;
    std::atomic<bool> stop{false};

    std::thread watcher([&] {
        std::uint64_t last = 0;
        while (!stop.load(std::memory_order_acquire)) {
            // Pops first: both counters only grow, so a pop count read
            // before the publish count can never exceed it.
            std::uint64_t pop = ring.popped();
            std::uint64_t pub = ring.published();
            // Monotone, and consumption never overtakes publication.
            EXPECT_LE(pop, pub);
            EXPECT_GE(pub + pop, last);
            last = pub + pop;
            std::this_thread::yield();
        }
    });

    std::thread producer([&] {
        std::uint64_t v = 0;
        while (v < total) {
            if (ring.tryPush(std::uint64_t(v))) {
                ring.publish();
                ++v;
            } else {
                std::this_thread::yield();
            }
        }
    });

    std::uint64_t got = 0;
    while (got < total) {
        if (ring.front()) {
            ring.pop();
            ++got;
        }
    }
    producer.join();
    stop.store(true, std::memory_order_release);
    watcher.join();
    EXPECT_EQ(ring.published(), total);
    EXPECT_EQ(ring.popped(), total);
}

// ------------------------------------------------------- watchdog ----

TEST(WatchdogSignature, FiresOnlyWhenAtomicProgressStops)
{
    // The concurrent supervisor samples a signature built purely from
    // atomics (Counter, ProgressTable::done, ring published/popped)
    // while worker threads mutate them. This is the satellite-fix
    // contract: sampled cross-thread state must be relaxed-atomic, so
    // this test is TSan-covered. The watchdog must stay quiet while
    // anything moves and fire promptly once everything is still.
    Counter produced;
    ProgressTable progress(2);
    SpscRing<int> ring(8);
    std::atomic<bool> stop{false};

    std::thread worker([&] {
        RecordId done = 0;
        while (!stop.load(std::memory_order_acquire)) {
            produced.inc();
            progress.publish(0, ++done);
            if (ring.tryPush(1)) {
                ring.publish();
            }
            if (ring.front())
                ring.pop();
        }
    });

    auto signature = [&] {
        return produced.value() + progress.done(0) + progress.done(1) +
               ring.published() + ring.popped();
    };

    ProgressWatchdog watchdog(100);
    bool fired = false;
    // While the worker runs, a poll that observes a changed signature
    // resets the idle count; with real forward progress the watchdog
    // cannot accumulate 100 *consecutive* idle polls... but a slow
    // worker thread makes that racy to assert strictly, so only the
    // post-stop behavior is checked hard.
    for (int i = 0; i < 1000; ++i)
        watchdog.poll(signature());
    stop.store(true, std::memory_order_release);
    worker.join();

    ProgressWatchdog still(10);
    std::uint64_t sig = signature();
    EXPECT_EQ(sig, signature()) << "signature must be stable once idle";
    for (int i = 0; i < 20 && !fired; ++i)
        fired = still.poll(signature());
    EXPECT_TRUE(fired);
    EXPECT_GE(still.idlePolls(), 10u);
}

TEST(WatchdogSignature, ProgressResetsIdleCount)
{
    ProgressWatchdog watchdog(3);
    EXPECT_FALSE(watchdog.poll(1));
    EXPECT_FALSE(watchdog.poll(1));
    EXPECT_FALSE(watchdog.poll(2)); // progress: idle count resets
    EXPECT_EQ(watchdog.idlePolls(), 0u);
    EXPECT_FALSE(watchdog.poll(2));
    EXPECT_FALSE(watchdog.poll(2));
    EXPECT_TRUE(watchdog.poll(2));
}

} // namespace
} // namespace paralog
