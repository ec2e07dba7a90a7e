/**
 * @file
 * The host lifeguard threads behind both concurrent engines — live
 * (core/platform_concurrent.cpp) and replay (ReplayPlatform, selected
 * by --lg-threads): N consumer threads own the lifeguard cores
 * round-robin and step them freely, each core fed through a lock-free
 * SPSC ring, while the calling thread stays the single producer.
 *
 * The producer decides *when* a record may cross to its consumer with
 * one rule, the online publication seal (CaptureUnit::publishSealed):
 * a record is handed over once it is visible under its stream's TSO
 * visibility limit and its append cycle is at or below the watermark W,
 * the minimum retire cycle of any buffered TSO store (+inf under SC).
 * Live runs read W from the store buffers; replay derives the same W
 * from the journal's retire ticks. Delivery *order* on the consumer
 * side is protocol-enforced (dependence arcs against the progress
 * table, two-sided ConflictAlert barriers, TSO version waits), so the
 * analysis results match the serial engines while simulated timing is
 * relaxed: there is no global clock across host threads.
 *
 * This unit also owns the failure plumbing: the first consumer
 * exception aborts every worker and is rethrown on the producer thread
 * at finish(); the "lg.fail" fault point panics the consumer of the
 * named stream; "seal.stall" never publishes the named stream; and a
 * stall after the producer finished trips a 2 ms-sampled watchdog that
 * dumps every stream's wait state and publication frontier
 * (Monitor::dump, shared with the serial scheduler) and panics.
 */

#ifndef PARALOG_CORE_LIFEGUARD_THREADS_HPP
#define PARALOG_CORE_LIFEGUARD_THREADS_HPP

#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_ring.hpp"
#include "core/lifeguard_core.hpp"

namespace paralog {

class LifeguardThreads
{
  public:
    /** Producer-side columns appended to a stream's dump line. */
    using StreamColumns = std::function<void(ThreadId)>;

    /**
     * Attach a ring to every capture unit and start @p threads
     * consumers. @p serialize_steps runs whole lifeguard steps under one
     * mutex: LockSet writes metadata from application-*read* handlers
     * (it violates condition 2 of section 5.3), so unordered
     * cross-thread read pairs may touch the same granule state, and
     * user-defined lifeguards declare no policy bit to rule that out.
     */
    LifeguardThreads(Monitor &monitor, std::uint32_t threads,
                     bool serialize_steps);
    /** Stops the consumers and detaches the rings. */
    ~LifeguardThreads();
    LifeguardThreads(const LifeguardThreads &) = delete;
    LifeguardThreads &operator=(const LifeguardThreads &) = delete;

    /** A consumer failed (or stop() ran): the producer should quit. */
    bool aborted() const { return abort_.load(std::memory_order_acquire); }

    /** Publish every stream's sealed records under @p watermark.
     *  Producer-thread-only. */
    void publish(Cycle watermark);

    /**
     * Watchdog signature over everything the hand-off moves: capture
     * appends, overflow, frontiers, ring pushes and pops, the progress
     * table and the version counters, folded FNV-style onto @p seed
     * (moving a record from overflow to ring changes two terms in
     * opposite directions, which a plain sum would cancel). Reads
     * producer-side state, so producer-thread-only.
     */
    std::uint64_t signature(std::uint64_t seed = 0) const;

    /** Abort the consumers and join them (idempotent). */
    void stop();

    /**
     * The producer is done: publish everything as the consumers make
     * ring space, wait for them under the 2 ms watchdog, and rethrow the
     * first consumer failure. A stall joins the workers, dumps the
     * frontiers and panics.
     */
    void finish(const char *engine, std::uint64_t stall_watchdog_iters,
                const StreamColumns &columns);

    /** Stop the consumers, dump every stream's wait state and ring
     *  frontier, then panic with @p why: panic may throw, and must not
     *  unwind past running workers. */
    [[noreturn]] void fail(const char *engine, const std::string &why,
                           Cycle watermark, const StreamColumns &columns);

  private:
    void consumerBody(std::uint32_t slot);

    const Monitor &mon_;
    const std::vector<std::unique_ptr<CaptureUnit>> &captures_;
    Counter &produced_;
    Counter &consumed_;
    const std::uint32_t k_;
    const std::uint32_t threads_;
    const bool serializeSteps_;
    ThreadId failTid_ = kInvalidThread;     ///< "lg.fail"
    ThreadId stallStream_ = kInvalidThread; ///< "seal.stall"

    std::deque<SpscRing<EventRecord>> rings_;
    std::mutex stepMutex_;
    std::atomic<bool> abort_{false};
    std::atomic<std::uint32_t> running_{0};
    std::mutex errMutex_;
    std::exception_ptr firstError_;
    std::vector<std::thread> workers_;
};

} // namespace paralog

#endif // PARALOG_CORE_LIFEGUARD_THREADS_HPP
