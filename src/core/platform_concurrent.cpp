/**
 * @file
 * Host-parallel *live* monitoring engine: the application cores and the
 * whole capture pipeline run on the calling thread while the lifeguard
 * cores run on host threads (core/lifeguard_threads.hpp), fed through
 * the online publication seal (CaptureUnit::publishSealed), whose
 * watermark live runs read from the TSO store buffers.
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

#include <string>

#include "core/lifeguard_threads.hpp"

namespace paralog {

RunResult
Platform::runConcurrentLive()
{
    const std::uint32_t k = cfg_.sim.appThreads;
    LifeguardThreads pool(mon_, std::min<std::uint32_t>(cfg_.lgThreads, k),
                          cfg_.customLifeguard != nullptr ||
                              cfg_.lifeguard == LifeguardKind::kLockSet);

    auto watermark = [&] {
        Cycle w = ~Cycle{0};
        if (tsoPath_) {
            for (CoreId core = 0; core < k; ++core)
                w = std::min(w, tsoPath_->oldestStoreRetire(core));
        }
        return w;
    };
    auto columns = [this](ThreadId t) { dumpColumns(t); };

    // The serial scheduler's guards; a trip goes through the pool, which
    // joins the workers before the panic.
    RunGuard guard("live-parallel", "seal-protocol or hand-off stall",
                   cfg_.maxCycles, cfg_.stallWatchdogIters);
    auto fail = [&](const std::string &why) {
        pool.fail(guard.engine, why, watermark(), columns);
    };
    auto signature = [&] { return pool.signature(producerSignature(0)); };
    Cycle now = 0;

    while (!pool.aborted()) {
        // Event-driven advance: the application cores are the only
        // simulated actors on this thread (lifeguard timing is
        // relaxed), so the next event is the earliest ready app core.
        // Once they have all finished, the producer advances time
        // through the TSO store drains itself (the serial scheduler
        // does it through the lifeguard cores), so visibility limits
        // lift and the watermark reaches +inf.
        Cycle next = nextReady();
        if (next == ~Cycle{0})
            next = drainReady();
        if (next == ~Cycle{0})
            break; // every core finished, every store buffer empty
        RunGuard::Trip trip = guard.idle(now, signature);
        if (trip != RunGuard::Trip::kNone)
            fail(guard.describe(trip, now));
        if (next > now)
            now = next;
        trip = guard.late(now);
        if (trip != RunGuard::Trip::kNone)
            fail(guard.describe(trip, now));
        produce(now, 0);
        pool.publish(watermark());
    }

    pool.finish("live-parallel", cfg_.stallWatchdogIters, columns);

    Cycle total = now;
    for (auto &c : mon_.lgCores)
        total = std::max(total, c->busyUntil);
    return collectResult(total);
}

} // namespace paralog
