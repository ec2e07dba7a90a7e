/**
 * @file
 * The serial discrete-event scheduler behind every single-threaded run
 * (live, replay, timesliced), the serial counterpart of
 * core/lifeguard_threads.hpp. Each iteration checks the run guards,
 * advances time to the earliest ready actor, runs the producer phase,
 * then steps every ready lifeguard core, batching up to the producer's
 * horizon and the peer cores' busyUntil. A tripped guard dumps every
 * stream's wait state and panics. A producer provides, with static
 * dispatch (this loop is every serial run's hot path):
 *   Cycle nextReady();            earliest cycle it acts; ~0 once done
 *   void produce(Cycle now, std::uint64_t lg_steps);
 *   Cycle horizon();              delivery-batching bound
 *   void lgStepped();             after every lifeguard step
 *   std::uint64_t producerSignature(std::uint64_t lg_steps);
 *   void dumpColumns(ThreadId t); its part of stream t's dump line
 */

#ifndef PARALOG_CORE_SERIAL_SCHEDULER_HPP
#define PARALOG_CORE_SERIAL_SCHEDULER_HPP

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/lifeguard_core.hpp"

namespace paralog {

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

/**
 * The guards a producer loop checks once per iteration: simulated time
 * must advance within 20M iterations, the progress signature must
 * change within `stall_iters` iterations, and time must stay within
 * `max_cycles`. A deadlocked protocol often retries with time still
 * advancing, which only the progress watchdog catches in useful time;
 * it samples every 64 iterations to stay off the loop's profile.
 */
class RunGuard
{
  public:
    enum class Trip { kNone, kLivelock, kStall, kMaxCycles };

    /** @p engine and @p cause name the run in dumps and panics. */
    RunGuard(const char *engine, const char *cause,
             std::uint64_t max_cycles, std::uint64_t stall_iters)
        : engine(engine), cause_(cause), maxCycles_(max_cycles),
          stallIters_(stall_iters), stall_(stall_iters / 64 + 1)
    {
    }

    /** Before the time advance. */
    template <class Signature>
    Trip
    idle(Cycle now, Signature &&signature)
    {
        if (now != lastNow_) {
            lastNow_ = now;
            sameNow_ = 0;
        } else if (++sameNow_ > 20'000'000) {
            return Trip::kLivelock;
        }
        if ((++tick_ & 63) == 0 && stall_.poll(signature()))
            return Trip::kStall;
        return Trip::kNone;
    }

    /** After the time advance. */
    Trip
    late(Cycle now) const
    {
        return now > maxCycles_ ? Trip::kMaxCycles : Trip::kNone;
    }

    std::string describe(Trip trip, Cycle now) const;

    const char *const engine;

  private:
    const char *cause_;
    std::uint64_t maxCycles_;
    std::uint64_t stallIters_;
    ProgressWatchdog stall_;
    Cycle lastNow_ = 0;
    std::uint64_t sameNow_ = 0;
    std::uint64_t tick_ = 0;
};

class SerialScheduler
{
  public:
    SerialScheduler(RunGuard guard, Monitor &monitor);

    /** Run to completion; returns the final simulated cycle. */
    template <class Producer>
    Cycle
    run(Producer &producer)
    {
        auto signature = [&] {
            return progressSignature(producer.producerSignature(lgSteps_));
        };
        auto columns = [&](ThreadId t) { producer.dumpColumns(t); };
        Cycle now = 0;
        while (producer.nextReady() != ~Cycle{0} || !lgsFinished()) {
            // The trip tests stay inline; only a trip leaves the loop.
            RunGuard::Trip trip = guard_.idle(now, signature);
            if (trip != RunGuard::Trip::kNone)
                fail(trip, now, columns);
            // Event-driven advance: jump to the earliest ready actor.
            Cycle next = producer.nextReady();
            for (const LifeguardCore *c : lgs_) {
                if (!c->finished())
                    next = std::min(next, c->busyUntil);
            }
            if (next > now)
                now = next;
            trip = guard_.late(now);
            if (trip != RunGuard::Trip::kNone)
                fail(trip, now, columns);
            producer.produce(now, lgSteps_);

            // Lifeguard phase; most iterations step no lifeguard core.
            Cycle actor_horizon = 0;
            bool horizon_valid = false;
            for (std::size_t i = 0; i < lgs_.size(); ++i) {
                LifeguardCore *c = lgs_[i];
                if (c->finished() || c->busyUntil > now)
                    continue;
                if (!horizon_valid) {
                    actor_horizon = producer.horizon();
                    horizon_valid = true;
                }
                // A peer that is ready (or becomes ready inside the
                // window) bounds the batch, so same-cycle interleaving
                // stays exact.
                Cycle horizon = actor_horizon;
                for (std::size_t j = 0; j < lgs_.size(); ++j) {
                    if (j != i && !lgs_[j]->finished())
                        horizon = std::min(horizon, lgs_[j]->busyUntil);
                }
                c->step(now, horizon);
                ++lgSteps_;
                producer.lgStepped();
            }
        }
        return now;
    }

  private:
    bool
    lgsFinished() const
    {
        return std::all_of(lgs_.begin(), lgs_.end(), [](const auto *c) {
            return c->finished();
        });
    }

    std::uint64_t
    progressSignature(std::uint64_t producer_terms) const
    {
        std::uint64_t sig =
            produced_.value() + consumed_.value() + producer_terms;
        for (const LifeguardCore *c : lgs_)
            sig += c->stats.recordsProcessed;
        for (ThreadId t = 0; t < mon_.progress->size(); ++t)
            sig += mon_.progress->done(t);
        return sig;
    }

    [[noreturn]] void fail(RunGuard::Trip trip, Cycle now,
                           const std::function<void(ThreadId)> &columns);

    RunGuard guard_;
    Monitor &mon_;
    std::vector<LifeguardCore *> lgs_; ///< flat: scanned every iteration
    const Counter &produced_;
    const Counter &consumed_;
    std::uint64_t lgSteps_ = 0;
};

} // namespace paralog

#endif // PARALOG_CORE_SERIAL_SCHEDULER_HPP
