#include "core/serial_scheduler.hpp"

#include <cstdio>

#include "common/logging.hpp"

namespace paralog {

namespace {

unsigned long long
ull(std::uint64_t v)
{
    return static_cast<unsigned long long>(v);
}

} // namespace

std::string
RunGuard::describe(Trip trip, Cycle now) const
{
    switch (trip) {
      case Trip::kLivelock:
        return strprintf("livelock (%s): cycle %llu never advances (%s)",
                         engine, ull(now), cause_);
      case Trip::kStall:
        return strprintf("progress watchdog (%s): no forward progress in "
                         "%llu scheduler iterations at cycle %llu (%s)",
                         engine, ull(stallIters_), ull(now), cause_);
      case Trip::kMaxCycles:
        return strprintf("simulation watchdog (%s): no completion after "
                         "%llu cycles (%s)",
                         engine, ull(maxCycles_), cause_);
      case Trip::kNone:
        break;
    }
    return {};
}

SerialScheduler::SerialScheduler(RunGuard guard, Monitor &monitor)
    : guard_(guard), mon_(monitor),
      produced_(monitor.versions.stats.counter("produced")),
      consumed_(monitor.versions.stats.counter("consumed"))
{
    for (const auto &c : monitor.lgCores)
        lgs_.push_back(c.get());
}

void
SerialScheduler::fail(RunGuard::Trip trip, Cycle now,
                      const std::function<void(ThreadId)> &columns)
{
    mon_.dump(strprintf("%s watchdog state dump (now=%llu lg_steps=%llu)",
                        guard_.engine, ull(now), ull(lgSteps_)),
              columns);
    panic("%s", guard_.describe(trip, now).c_str());
}

} // namespace paralog
