/**
 * @file
 * The TIMESLICED MONITORING baseline of Figure 6: the state of the art
 * before ParaLog. All application threads are timesliced onto a single
 * core and the resulting *sequentially interleaved* event stream is
 * analyzed by one lifeguard core running the sequential accelerators.
 * No dependence arcs or ConflictAlerts are needed — the merged stream is
 * already totally ordered — but neither the application nor the
 * lifeguard enjoys any parallel speedup.
 *
 * The timesliced core is a producer of the serial scheduler
 * (core/serial_scheduler.hpp), which drives it and the one lifeguard
 * core under the same guards and state dump as live and replay runs.
 */

#ifndef PARALOG_CORE_TIMESLICED_HPP
#define PARALOG_CORE_TIMESLICED_HPP

#include <algorithm>
#include <memory>
#include <vector>

#include "app/data_path.hpp"
#include "app/heap.hpp"
#include "app/interpreter.hpp"
#include "app/sync.hpp"
#include "core/lifeguard_core.hpp"
#include "core/platform.hpp"
#include "core/run_stats.hpp"

namespace paralog {

class Timesliced : public PlatformHooks
{
  public:
    explicit Timesliced(PlatformConfig cfg);
    ~Timesliced() override;

    RunResult run();

    bool lifeguardDrained(ThreadId tid) override;

    Lifeguard &lifeguard() { return *mon_.lifeguard; }

  private:
    void stepApp(Cycle now);
    void switchTo(std::uint32_t next, Cycle now);
    std::uint32_t pickNext() const;
    CaptureUnit &merged() { return *mon_.captures[0]; }

    // --- producer (core/serial_scheduler.hpp) ---
    friend class SerialScheduler;
    Cycle
    nextReady() const
    {
        bool done = std::all_of(finished_.begin(), finished_.end(),
                                [](bool f) { return f; });
        return done ? ~Cycle{0} : appBusyUntil_;
    }
    void
    produce(Cycle now, std::uint64_t)
    {
        if (appBusyUntil_ <= now && nextReady() != ~Cycle{0})
            stepApp(now);
    }
    /// The timesliced application core is the only other actor.
    Cycle horizon() const { return nextReady(); }
    void lgStepped() {}
    std::uint64_t
    producerSignature(std::uint64_t) const
    {
        std::uint64_t retired = 0;
        for (const auto &tc : tcs_)
            retired += tc->retired;
        return retired;
    }
    void dumpColumns(ThreadId t) const;

    PlatformConfig cfg_;
    WorkloadEnv env_;

    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<Heap> heap_;
    LockManager locks_;
    BarrierManager barriers_;
    std::unique_ptr<DataPath> dataPath_;
    std::unique_ptr<Interpreter> interp_;
    Interpreter::StepOutcome stepScratch_; ///< reused across stepApp calls

    Monitor mon_; ///< one merged stream and its one lifeguard core

    std::vector<std::unique_ptr<ThreadContext>> tcs_;
    std::vector<AppThreadStats> appStats_;
    std::vector<bool> finished_;
    std::uint32_t current_ = 0;
    std::uint64_t quantumLeft_ = 0;
    Cycle appBusyUntil_ = 0;
};

} // namespace paralog

#endif // PARALOG_CORE_TIMESLICED_HPP
