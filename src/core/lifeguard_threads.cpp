#include "core/lifeguard_threads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "core/serial_scheduler.hpp"

namespace paralog {

namespace {

/// Ring capacity trades hand-off slack against footprint; sealed
/// records overflow to a producer-side queue when a consumer lags, so
/// publication never blocks the producer.
constexpr std::size_t kRingSlots = 4096;

ThreadId
faultStream(const char *point)
{
    std::optional<std::uint64_t> v = faultValue(point);
    return v ? static_cast<ThreadId>(*v) : kInvalidThread;
}

} // namespace

LifeguardThreads::LifeguardThreads(Monitor &monitor, std::uint32_t threads,
                                   bool serialize_steps)
    : mon_(monitor), captures_(monitor.captures),
      produced_(monitor.versions.stats.counter("produced")),
      consumed_(monitor.versions.stats.counter("consumed")),
      k_(static_cast<std::uint32_t>(captures_.size())), threads_(threads),
      serializeSteps_(serialize_steps), failTid_(faultStream("lg.fail")),
      stallStream_(faultStream("seal.stall"))
{
    for (ThreadId t = 0; t < k_; ++t) {
        rings_.emplace_back(kRingSlots);
        captures_[t]->attachRing(&rings_[t]);
    }
    running_.store(threads_, std::memory_order_relaxed);
    workers_.reserve(threads_);
    for (std::uint32_t slot = 0; slot < threads_; ++slot) {
        workers_.emplace_back([this, slot] {
            try {
                consumerBody(slot);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> g(errMutex_);
                    if (!firstError_)
                        firstError_ = std::current_exception();
                }
                abort_.store(true, std::memory_order_release);
            }
            running_.fetch_sub(1, std::memory_order_release);
        });
    }
}

LifeguardThreads::~LifeguardThreads()
{
    stop();
    for (const auto &c : captures_)
        c->attachRing(nullptr);
}

void
LifeguardThreads::consumerBody(std::uint32_t slot)
{
    std::vector<ThreadId> mine;
    for (ThreadId t = slot; t < k_; t += threads_)
        mine.push_back(t);
    std::vector<Cycle> nows(mine.size(), 0);
    for (;;) {
        if (aborted())
            return;
        bool all_done = true;
        bool progressed = false;
        for (std::size_t i = 0; i < mine.size(); ++i) {
            LifeguardCore &core = *mon_.lgCores[mine[i]];
            if (core.finished())
                continue;
            all_done = false;
            if (mine[i] == failTid_)
                panic("lg.fail: injected failure on lifeguard thread %u",
                      mine[i]);
            std::uint64_t before = core.stats.recordsProcessed;
            if (serializeSteps_) {
                std::lock_guard<std::mutex> g(stepMutex_);
                core.step(nows[i], ~Cycle{0});
            } else {
                core.step(nows[i], ~Cycle{0});
            }
            nows[i] = std::max(nows[i], core.busyUntil);
            progressed |= (core.stats.recordsProcessed != before);
        }
        if (all_done)
            return;
        if (!progressed)
            std::this_thread::yield();
    }
}

void
LifeguardThreads::publish(Cycle watermark)
{
    for (ThreadId t = 0; t < k_; ++t) {
        if (t != stallStream_)
            captures_[t]->publishSealed(watermark);
    }
}

std::uint64_t
LifeguardThreads::signature(std::uint64_t seed) const
{
    std::uint64_t sig = 1469598103934665603ULL;
    auto fold = [&sig](std::uint64_t v) {
        sig = (sig ^ v) * 1099511628211ULL;
    };
    fold(seed);
    fold(produced_.value());
    fold(consumed_.value());
    for (ThreadId t = 0; t < k_; ++t) {
        fold(captures_[t]->buffer().appended());
        fold(captures_[t]->overflowSize());
        fold(captures_[t]->ceilingBound());
        fold(rings_[t].published());
        fold(rings_[t].popped());
        fold(mon_.progress->done(t));
    }
    return sig;
}

void
LifeguardThreads::stop()
{
    abort_.store(true, std::memory_order_release);
    for (std::thread &w : workers_) {
        if (w.joinable())
            w.join();
    }
}

void
LifeguardThreads::finish(const char *engine,
                         std::uint64_t stall_watchdog_iters,
                         const StreamColumns &columns)
{
    using Clock = std::chrono::steady_clock;
    constexpr auto kPollPeriod = std::chrono::milliseconds(2);
    ProgressWatchdog watchdog(
        std::max<std::uint64_t>(1000, stall_watchdog_iters / 1000));
    Clock::time_point next_poll = Clock::now() + kPollPeriod;
    while (running_.load(std::memory_order_acquire) > 0) {
        // Everything is sealed now: hand the log buffers and overflow
        // queues to the rings as the consumers make space.
        bool pending = false;
        if (!aborted()) {
            publish(~Cycle{0});
            for (const auto &c : captures_)
                pending |= !c->allPublished();
        }
        if (pending)
            std::this_thread::yield();
        else
            std::this_thread::sleep_for(kPollPeriod);
        if (Clock::now() < next_poll)
            continue;
        next_poll = Clock::now() + kPollPeriod;
        if (watchdog.poll(signature())) {
            fail(engine,
                 strprintf("%s watchdog: lifeguard threads made no forward "
                           "progress after the producer finished "
                           "(delivery deadlock)",
                           engine),
                 ~Cycle{0}, columns);
        }
    }
    stop();
    if (firstError_)
        std::rethrow_exception(firstError_);
}

void
LifeguardThreads::fail(const char *engine, const std::string &why,
                       Cycle watermark, const StreamColumns &columns)
{
    stop();
    mon_.dump(
        strprintf("%s watchdog state dump (watermark=%llu)", engine,
                  static_cast<unsigned long long>(watermark)),
        [&](ThreadId t) {
            CaptureUnit &c = *captures_[t];
            std::fprintf(
                stderr,
                " | appended=%llu frontier=%llu overflow=%zu ring "
                "pub=%llu pop=%llu",
                static_cast<unsigned long long>(c.buffer().appended()),
                static_cast<unsigned long long>(c.ceilingBound()),
                c.overflowSize(),
                static_cast<unsigned long long>(rings_[t].published()),
                static_cast<unsigned long long>(rings_[t].popped()));
            if (columns)
                columns(t);
        });
    panic("%s", why.c_str());
}

} // namespace paralog
