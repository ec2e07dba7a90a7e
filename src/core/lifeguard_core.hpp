/**
 * @file
 * One simulated lifeguard core: the right half of Figure 2. Pulls
 * records through the order-enforcing component, runs them through the
 * accelerators, executes lifeguard handlers for delivered events, and
 * publishes progress (with delayed advertising) to the shared progress
 * table. Monitor bundles a run's lifeguard cores with their streams and
 * the state they share.
 */

#ifndef PARALOG_CORE_LIFEGUARD_CORE_HPP
#define PARALOG_CORE_LIFEGUARD_CORE_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accel/accel_unit.hpp"
#include "core/run_stats.hpp"
#include "deliver/order_enforce.hpp"
#include "lifeguard/lifeguard.hpp"
#include "lifeguard/version_store.hpp"

namespace paralog {

class LifeguardCore
{
  public:
    LifeguardCore(CoreId core, ThreadId tid, const SimConfig &cfg,
                  CaptureUnit &capture, ProgressTable &progress,
                  CaManager &ca, Lifeguard &lifeguard, MemorySystem *mem,
                  VersionStore &versions, std::uint32_t done_records_needed);

    /**
     * Pull and process records. @p batch_horizon is the earliest
     * simulated time any *other* actor (application core, other
     * lifeguard core, pending TSO store drain) can run: the batched
     * delivery fast path keeps draining records only while the running
     * cost stays strictly inside that window, so batching is invisible
     * — every batched record is processed, and every side effect
     * published, in an interval no other core observes. Pass
     * @p batch_horizon = now to disable batching (single-pop step).
     */
    void step(Cycle now, Cycle batch_horizon);

    /** All kThreadDone records consumed (timesliced needs several). */
    bool finished() const { return doneSeen_ >= doneNeeded_; }

    Cycle busyUntil = 0;
    LifeguardThreadStats stats;

    AccelUnit &accel() { return accel_; }
    OrderEnforcer &enforcer() { return enforcer_; }
    LgContext &ctx() { return ctx_; }

  private:
    /** Run handlers for a batch of delivered events; returns cycles. */
    Cycle runHandlers(std::vector<LgEvent> &events);
    void publishProgress();
    Cycle maybeStallFlush(Cycle now);
    Cycle handleStallFlush(Cycle now);
    /** Platform-owned halves of the TSO versioning protocol (section
     *  5.5 + read-side-writer rule): guarantee the snapshot exists after
     *  a produce record, discard unconsumed snapshots, and mark
     *  writer-handler completion on the producing store. */
    void enforceVersionProtocol(const EventRecord &rec);

    CoreId core_;
    ThreadId tid_;
    const SimConfig &cfg_;
    CaptureUnit &capture_;
    ProgressTable &progress_;
    Lifeguard &lifeguard_;
    AccelUnit accel_;
    OrderEnforcer enforcer_;
    LgContext ctx_;
    std::uint32_t doneNeeded_;
    std::uint32_t doneSeen_ = 0;
    RecordId lastProcessed_ = 0;
    std::uint64_t emptyStreak_ = 0;
    std::uint64_t stallStreak_ = 0;
    std::uint64_t absorbedTick_ = 0;
    std::vector<LgEvent> events_; ///< scratch, reused across steps
    /// Versions produced by this stream whose producing store record
    /// (identified by rid) has not been processed yet; used to mark
    /// VersionStore entries writerDone (read-side-writer rule).
    std::vector<std::pair<VersionTag, RecordId>> pendingWriterStores_;
};

/**
 * The monitoring side of a run, the consumer half every engine drives:
 * one capture stream per monitored thread feeding lifeguard core t, the
 * lifeguard, the progress table, the ConflictAlert manager and the
 * version store. Without monitoring, the streams are null, there are no
 * cores and no lifeguard.
 */
struct Monitor
{
    std::unique_ptr<Lifeguard> lifeguard;
    std::unique_ptr<ProgressTable> progress;
    std::unique_ptr<CaManager> caMgr;
    VersionStore versions;
    std::vector<std::unique_ptr<CaptureUnit>> captures;
    std::vector<std::unique_ptr<LifeguardCore>> lgCores;

    /** The monitoring half of every engine's result: lifeguard stats,
     *  version counters and the violation set. */
    RunResult result(Cycle total_cycles);

    /**
     * The one stuck-state dump, under @p header: per stream its size,
     * visibility limit and progress, the engine's @p columns, its
     * lifeguard core's wait state and its front record with arcs; then
     * the version store.
     */
    void dump(const std::string &header,
              const std::function<void(ThreadId)> &columns) const;
};

} // namespace paralog

#endif // PARALOG_CORE_LIFEGUARD_CORE_HPP
