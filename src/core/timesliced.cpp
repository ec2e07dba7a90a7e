#include "core/timesliced.hpp"

#include "common/logging.hpp"

namespace paralog {

Timesliced::Timesliced(PlatformConfig cfg)
    : cfg_(std::move(cfg)), env_(AddressLayout::env(cfg_))
{
    cfg_.sim.mode = MonitorMode::kTimesliced;
    // A sequential lifeguard consumes a totally ordered stream: it needs
    // neither dependence arcs nor ConflictAlert broadcasts.
    cfg_.sim.conflictAlerts = false;
    PARALOG_ASSERT(cfg_.sim.memoryModel == MemoryModel::kSC,
                   "timesliced baseline models a single-core app: SC only");

    const std::uint32_t k = cfg_.sim.appThreads;
    mem_ = std::make_unique<MemorySystem>(cfg_.sim, 2);
    heap_ = std::make_unique<Heap>(AddressLayout::kHeapBase,
                                   AddressLayout::kHeapBytes, k);

    // One sequential lifeguard core: auto-sharding resolves to 1.
    mon_.lifeguard = makeLifeguard(cfg_.lifeguard, k,
                                   cfg_.sim.effectiveShadowShards(1));
    LifeguardPolicy policy = mon_.lifeguard->policy();

    // Arc capture off: the merged stream is already ordered.
    dataPath_ = std::make_unique<ScDataPath>(*mem_, false);
    interp_ = std::make_unique<Interpreter>(cfg_.sim, *dataPath_, *mem_,
                                            *heap_, locks_, barriers_,
                                            *this);

    mon_.progress = std::make_unique<ProgressTable>(k);
    mon_.caMgr = std::make_unique<CaManager>(k);

    EventFilter filter;
    filter.regOps = policy.wantsRegOps;
    filter.jumps = policy.wantsJumps;
    filter.heapOnly = policy.heapOnly;
    filter.heapArena = heap_->arena();
    mon_.captures.push_back(
        std::make_unique<CaptureUnit>(0, cfg_.sim, filter));

    std::shared_ptr<Workload> workload = cfg_.customWorkload;
    if (!workload)
        workload = makeWorkload(cfg_.workload);
    for (ThreadId t = 0; t < k; ++t) {
        tcs_.push_back(std::make_unique<ThreadContext>(
            t, workload->makeThread(t, env_)));
    }
    appStats_.resize(k);
    finished_.assign(k, false);
    quantumLeft_ = cfg_.sim.timesliceQuantum;
    mem_->bindThread(0, 0);

    mon_.lgCores.push_back(std::make_unique<LifeguardCore>(
        1, 0, cfg_.sim, merged(), *mon_.progress, *mon_.caMgr,
        *mon_.lifeguard, mem_.get(), mon_.versions, k));
}

Timesliced::~Timesliced() = default;

bool
Timesliced::lifeguardDrained(ThreadId tid)
{
    (void)tid;
    return merged().consumerEmpty();
}

std::uint32_t
Timesliced::pickNext() const
{
    const std::uint32_t k = static_cast<std::uint32_t>(tcs_.size());
    for (std::uint32_t i = 1; i <= k; ++i) {
        std::uint32_t cand = (current_ + i) % k;
        if (!finished_[cand])
            return cand;
    }
    return current_;
}

void
Timesliced::switchTo(std::uint32_t next, Cycle now)
{
    if (next == current_)
        return;
    current_ = next;
    quantumLeft_ = cfg_.sim.timesliceQuantum;
    mem_->bindThread(0, tcs_[current_]->tid());

    // The OS saves/restores the (thread id, counter) tuple on context
    // switches (section 5.1); the lifeguard sees a thread-switch record
    // and flushes IT (the register file changed hands).
    EventRecord rec;
    rec.type = EventType::kThreadSwitch;
    rec.tid = tcs_[current_]->tid();
    rec.rid = tcs_[current_]->retired;
    rec.value = tcs_[current_]->tid();
    merged().buffer().append(std::move(rec));

    appBusyUntil_ = now + cfg_.sim.contextSwitchCost;
}

void
Timesliced::stepApp(Cycle now)
{
    ThreadContext &tc = *tcs_[current_];
    AppThreadStats &st = appStats_[current_];

    if (finished_[current_]) {
        switchTo(pickNext(), now);
        return;
    }

    if (!merged().canAppend()) {
        st.logFullStall += cfg_.sim.retryInterval;
        appBusyUntil_ = now + cfg_.sim.retryInterval;
        return;
    }

    interp_->step(tc, 0, now, stepScratch_);
    Interpreter::StepOutcome &out = stepScratch_;

    switch (out.kind) {
      case Interpreter::StepOutcome::Kind::kDone:
        finished_[current_] = true;
        st.doneAt = now;
        switchTo(pickNext(), now);
        return;

      case Interpreter::StepOutcome::Kind::kBlocked: {
        // Spin synchronization: the blocked thread burns cycles on the
        // only core before the scheduler preempts it, so every lock
        // hand-off and barrier costs a scheduling round trip.
        Cycle spin = out.latency;
        switch (tc.blockReason) {
          case BlockReason::kLock:
            spin = cfg_.sim.timesliceSpinOnBlock;
            st.lockStall += spin;
            break;
          case BlockReason::kBarrier:
            spin = cfg_.sim.timesliceSpinOnBlock;
            st.barrierStall += spin;
            break;
          case BlockReason::kDrain:
            st.drainStall += spin;
            break;
          default:
            break;
        }
        appBusyUntil_ = now + spin;
        switchTo(pickNext(), now + spin);
        return;
      }

      case Interpreter::StepOutcome::Kind::kRetired:
        break;
    }

    ++tc.retired;
    ++st.retired;
    st.execCycles += out.latency;
    merged().setRetired(tc.retired);
    merged().append(out.event);
    appBusyUntil_ = now + std::max<Cycle>(1, out.latency);

    if (quantumLeft_ == 0 || --quantumLeft_ == 0)
        switchTo(pickNext(), now);
}

void
Timesliced::dumpColumns(ThreadId) const
{
    std::fprintf(stderr, " | app thread=%u retired=%llu busyUntil=%llu",
                 current_,
                 static_cast<unsigned long long>(tcs_[current_]->retired),
                 static_cast<unsigned long long>(appBusyUntil_));
}

RunResult
Timesliced::run()
{
    SerialScheduler scheduler(RunGuard("timesliced",
                                       "deadlock or runaway workload",
                                       cfg_.maxCycles,
                                       cfg_.stallWatchdogIters),
                              mon_);
    RunResult result = mon_.result(scheduler.run(*this));
    result.app = appStats_;
    for (auto &tc : tcs_)
        result.app[tc->tid()].programInsts = tc->programInsts;
    return result;
}

} // namespace paralog
