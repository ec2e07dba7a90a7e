/**
 * @file
 * Host-parallel *live* monitoring engine: the application cores and the
 * whole capture pipeline run on the calling thread while the lifeguard
 * cores run on host threads (core/lifeguard_threads.hpp), fed through
 * the online publication seal.
 *
 * Two producer-side facts make the seal sound without any look-ahead:
 *
 *  1. Every mutation except TSO consume-version annotation targets a
 *     record the visibility limit still hides (drain-time arcs and
 *     produce insertions go to store-buffer-hidden stores; CA stamping
 *     happens within the issuing step, before any publication runs).
 *     `LogBuffer::peek(visLimit_)` already enforces this bound.
 *
 *  2. A consume-version annotation targets a *load* that retired
 *     strictly after the store whose drain raises it
 *     (MemorySystem::addArcFrom compares AccessTag retire cycles). So
 *     once every store currently buffered retired at or after a
 *     record's append cycle, no present or future drain can annotate
 *     it. The watermark W = min over cores of the oldest buffered
 *     store's retire cycle therefore seals everything appended at or
 *     before W (TsoDataPath::oldestStoreRetire; under SC, W is +inf).
 *
 * The producer publishes after every simulation iteration; because
 * publication, back-pressure (canAppend) and syscall draining are pure
 * functions of producer-side state, the producer's simulation is
 * bit-deterministic regardless of consumer timing. Analysis results —
 * the shadow fingerprint and the distinct-violation set — are identical
 * to a serial live run; simulated timing, stall breakdowns, per-stream
 * record counts and version counts are relaxed (the serial app waits
 * for *consumption* at drain points, the parallel app for
 * *publication*).
 */

#include "core/platform.hpp"

#include <cstdio>
#include <string>

#include "common/logging.hpp"
#include "core/lifeguard_threads.hpp"
#include "trace/recorder.hpp"

namespace paralog {

RunResult
Platform::runConcurrentLive()
{
    const std::uint32_t k = cfg_.sim.appThreads;
    LifeguardThreads pool(captures_, lgCores_, *progress_, versions_,
                          std::min<std::uint32_t>(cfg_.lgThreads, k),
                          cfg_.customLifeguard != nullptr ||
                              cfg_.lifeguard == LifeguardKind::kLockSet);

    std::vector<AppCore *> apps;
    apps.reserve(appCores_.size());
    for (auto &c : appCores_)
        apps.push_back(c.get());

    auto watermark = [&] {
        Cycle w = ~Cycle{0};
        if (tsoPath_) {
            for (CoreId core = 0; core < k; ++core)
                w = std::min(w, tsoPath_->oldestStoreRetire(core));
        }
        return w;
    };

    auto appColumns = [&](ThreadId t) {
        const AppCore &ac = *appCores_[t];
        std::fprintf(stderr, " | app active=%d retired=%llu reason=%d",
                     ac.active() ? 1 : 0,
                     static_cast<unsigned long long>(ac.tc().retired),
                     static_cast<int>(ac.tc().blockReason));
        if (tsoPath_) {
            std::fprintf(stderr, " storeBuf=%zu oldestRetire=%llu",
                         tsoPath_->depth(static_cast<CoreId>(t)),
                         static_cast<unsigned long long>(
                             tsoPath_->oldestStoreRetire(
                                 static_cast<CoreId>(t))));
        }
    };
    auto fail = [&](const std::string &why) {
        pool.fail("live-parallel", why, watermark(), appColumns);
    };

    // Same cadence as the serial scheduler: sampled every 64
    // iterations so the signature stays off the hot loop's profile.
    ProgressWatchdog stall_watchdog(cfg_.stallWatchdogIters / 64 + 1);
    std::uint64_t watchdog_tick = 0;
    auto poll_watchdog = [&] {
        if ((++watchdog_tick & 63) != 0)
            return;
        std::uint64_t retired = 0;
        for (const AppCore *c : apps)
            retired += c->tc().retired;
        if (stall_watchdog.poll(pool.signature(retired))) {
            fail(strprintf("live-parallel watchdog: no forward progress "
                           "in %llu scheduler iterations (seal-protocol "
                           "or hand-off stall)",
                           static_cast<unsigned long long>(
                               cfg_.stallWatchdogIters)));
        }
    };

    Cycle now = 0;
    Cycle last_now = 0;
    std::uint64_t same_now_iters = 0;

    while (!pool.aborted()) {
        // Event-driven advance: the application cores are the only
        // simulated actors on this thread (lifeguard timing is
        // relaxed), so the next event is the earliest ready app core.
        Cycle next = kInvalidRecord;
        for (AppCore *c : apps) {
            if (c->active())
                next = std::min(next, c->busyUntil);
        }
        if (next == kInvalidRecord)
            break; // every application core finished
        if (now == last_now) {
            if (++same_now_iters > 20'000'000)
                fail(strprintf("livelock: cycle %llu never advances",
                               static_cast<unsigned long long>(now)));
        } else {
            last_now = now;
            same_now_iters = 0;
        }
        poll_watchdog();
        if (next > now)
            now = next;
        if (cfg_.recorder)
            cfg_.recorder->setNow(now);
        if (now > cfg_.maxCycles) {
            fail(strprintf("simulation watchdog: no completion after %llu "
                           "cycles (deadlock or runaway workload)",
                           static_cast<unsigned long long>(cfg_.maxCycles)));
        }

        for (AppCore *c : apps) {
            if (c->active() && c->busyUntil <= now)
                c->step(now);
        }
        if (tsoPath_) {
            for (CoreId core = 0; core < k; ++core)
                tsoPath_->pump(core, now);
        }
        pool.publish(watermark());
    }

    // Post-application TSO drain: the serial scheduler keeps advancing
    // time through the lifeguard cores until the store buffers empty;
    // here the producer must advance it itself so visibility limits
    // lift and the watermark reaches +inf.
    while (tsoPath_ && !pool.aborted()) {
        Cycle next_ready = ~Cycle{0};
        for (CoreId core = 0; core < k; ++core)
            next_ready = std::min(next_ready, tsoPath_->nextDrainReady(core));
        if (next_ready == ~Cycle{0})
            break; // every buffer empty
        if (next_ready > now)
            now = next_ready;
        if (cfg_.recorder)
            cfg_.recorder->setNow(now);
        for (CoreId core = 0; core < k; ++core)
            tsoPath_->pump(core, now);
        pool.publish(watermark());
        poll_watchdog();
    }

    pool.finish("live-parallel", cfg_.stallWatchdogIters, appColumns);

    Cycle total = now;
    for (auto &c : lgCores_)
        total = std::max(total, c->busyUntil);
    return collectResult(total);
}

} // namespace paralog
