/**
 * @file
 * The ParaLog online parallel monitoring platform (Figure 2): k
 * application cores each paired with a lifeguard core, sharing a
 * coherent memory hierarchy, per-thread event streams with captured
 * dependence arcs, a global progress table, ConflictAlert broadcasting,
 * and (under TSO) the versioned-metadata protocol.
 *
 * Also runs the NO-MONITORING baseline (application alone on k cores).
 * The TIMESLICED baseline lives in core/timesliced.hpp.
 */

#ifndef PARALOG_CORE_PLATFORM_HPP
#define PARALOG_CORE_PLATFORM_HPP

#include <functional>
#include <memory>
#include <vector>

#include "app/data_path.hpp"
#include "app/heap.hpp"
#include "app/interpreter.hpp"
#include "app/sync.hpp"
#include "capture/store_buffer.hpp"
#include "core/app_core.hpp"
#include "core/lifeguard_core.hpp"
#include "core/run_stats.hpp"
#include "deliver/ca_manager.hpp"
#include "deliver/progress_table.hpp"
#include "lifeguard/version_store.hpp"
#include "workloads/workload.hpp"

namespace paralog {

namespace trace {
class TraceRecorder;
} // namespace trace

struct PlatformConfig
{
    SimConfig sim;
    LifeguardKind lifeguard = LifeguardKind::kTaintCheck;
    WorkloadKind workload = WorkloadKind::kLu;
    /// When set, overrides `workload` (custom applications: examples,
    /// failure-injection tests).
    std::shared_ptr<Workload> customWorkload;
    /// When set, overrides `lifeguard` (user-defined lifeguards written
    /// against the Lifeguard API).
    std::function<LifeguardPtr(std::uint32_t)> customLifeguard;
    std::uint64_t scale = 10000;          ///< total work units
    std::uint64_t maxCycles = 1ULL << 36; ///< simulated-time watchdog
    /// Progress watchdog: scheduler iterations without any global
    /// progress (no retirement, no record delivered, no published
    /// progress, no version activity) before the run is declared stuck
    /// and panics with a full wait-state dump. Unlike `maxCycles` this
    /// catches retry loops that keep simulated time advancing; the
    /// default is far above any legitimate stall (a retry is >= 4
    /// simulated cycles, so 2M idle iterations is ~8M cycles in which
    /// no actor did anything).
    std::uint64_t stallWatchdogIters = 2'000'000;
    /// Tee all captured records into Platform::trace() for offline
    /// happens-before validation (SC runs).
    bool traceCapture = false;
    /// Record the run as a `paralog-trace-v1` journal for offline
    /// replay (core/replay.hpp). Parallel monitoring mode only; the
    /// recorder outlives the platform (the caller finalizes it with
    /// the run's results and shadow fingerprint).
    trace::TraceRecorder *recorder = nullptr;
    /**
     * Host lifeguard threads for *live* runs. 0 and 1 select the serial
     * scheduler (bit-identical, the reference). >= 2 selects the
     * concurrent engine (core/platform_concurrent.cpp): the application
     * cores and the whole capture pipeline stay on the calling thread
     * while min(lgThreads, appThreads) consumer threads run the
     * lifeguard cores (core/lifeguard_threads.hpp), gated by the online
     * publication seal (CaptureUnit::publishSealed) that concurrent
     * replay uses too.
     * Analysis results (shadow fingerprint, violation set) stay
     * identical to serial; simulated timing and delivery-schedule
     * columns are relaxed (no global clock across host threads).
     * Requires parallel monitoring mode with ConflictAlerts enabled.
     */
    std::uint32_t lgThreads = 0;
};

/**
 * Detects a wedged simulation: feed a cheap signature of global
 * progress every scheduler iteration; fires once the signature has not
 * changed for `limit` consecutive polls. Pure bookkeeping (no time
 * source), so runs stay deterministic.
 */
class ProgressWatchdog
{
  public:
    explicit ProgressWatchdog(std::uint64_t limit) : limit_(limit) {}

    bool
    poll(std::uint64_t signature)
    {
        if (signature != last_) {
            last_ = signature;
            same_ = 0;
            return false;
        }
        return ++same_ >= limit_;
    }

    std::uint64_t idlePolls() const { return same_; }

  private:
    std::uint64_t limit_;
    std::uint64_t last_ = ~0ULL;
    std::uint64_t same_ = 0;
};

/** Default simulated address layout. */
struct AddressLayout
{
    static constexpr Addr kGlobalBase = 0x0100'0000;
    static constexpr Addr kLockBase = 0x0300'0000;
    static constexpr Addr kBarrierBase = 0x0310'0000;
    static constexpr Addr kHeapBase = 0x0400'0000;
    static constexpr std::uint64_t kHeapBytes = 48ULL << 20;
};

class Platform : public PlatformHooks, public TsoHooks
{
  public:
    explicit Platform(PlatformConfig cfg);
    ~Platform() override;

    /** Run to completion; returns the collected statistics. */
    RunResult run();

    /** True when run() will use the host-parallel live engine. */
    bool
    concurrentLive() const
    {
        return cfg_.lgThreads >= 2 &&
               cfg_.sim.mode == MonitorMode::kParallel;
    }

    // --- PlatformHooks ---
    bool lifeguardDrained(ThreadId tid) override;

    // --- TsoHooks ---
    void attachArcsToPending(ThreadId tid, RecordId rid,
                             const std::vector<RawArc> &arcs) override;
    void onScViolation(ThreadId writer_tid, RecordId writer_rid, Addr addr,
                       std::uint8_t size,
                       const VersionRequest &reader) override;
    void setVisibilityLimit(ThreadId tid, RecordId limit) override;

    Lifeguard &lifeguard() { return *lifeguard_; }
    Heap &heap() { return *heap_; }
    MemorySystem &memory() { return *mem_; }
    CaManager &caManager() { return *caMgr_; }
    VersionStore &versions() { return versions_; }
    CaptureUnit &capture(ThreadId tid) { return *captures_[tid]; }
    LifeguardCore &lifeguardCore(ThreadId tid) { return *lgCores_[tid]; }
    AppCore &appCore(ThreadId tid) { return *appCores_[tid]; }
    TraceSink &trace() { return trace_; }
    const WorkloadEnv &env() const { return env_; }
    const PlatformConfig &config() const { return cfg_; }

  private:
    Cycle caBroadcast(ThreadId tid, RecordId rid, HighLevelKind kind,
                      const AddrRange &range);
    bool allDone() const;
    void dumpStuckState() const;
    RunResult runSerial();
    /// Implemented in core/platform_concurrent.cpp.
    RunResult runConcurrentLive();
    /// Shared result assembly (per-core stats, version counters,
    /// violation fingerprint).
    RunResult collectResult(Cycle total_cycles);

    PlatformConfig cfg_;
    LifeguardPolicy policy_;
    WorkloadEnv env_;

    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<Heap> heap_;
    LockManager locks_;
    BarrierManager barriers_;
    std::unique_ptr<DataPath> dataPath_;
    TsoDataPath *tsoPath_ = nullptr; ///< non-null iff TSO
    std::unique_ptr<Interpreter> interp_;

    std::unique_ptr<Lifeguard> lifeguard_;
    std::unique_ptr<ProgressTable> progress_;
    std::unique_ptr<CaManager> caMgr_;
    VersionStore versions_;

    std::vector<std::unique_ptr<CaptureUnit>> captures_;
    std::vector<std::unique_ptr<AppCore>> appCores_;
    std::vector<std::unique_ptr<LifeguardCore>> lgCores_;
    TraceSink trace_;
};

} // namespace paralog

#endif // PARALOG_CORE_PLATFORM_HPP
