#include "core/platform.hpp"

#include "common/logging.hpp"
#include "trace/recorder.hpp"

namespace paralog {

namespace {

std::uint8_t
packFilterBits(const EventFilter &f)
{
    using namespace trace;
    return (f.regOps ? kFilterRegOps : 0) |
           (f.loads ? kFilterLoads : 0) |
           (f.stores ? kFilterStores : 0) |
           (f.jumps ? kFilterJumps : 0) |
           (f.heapOnly ? kFilterHeapOnly : 0);
}

} // namespace

Platform::Platform(PlatformConfig cfg)
    : cfg_(std::move(cfg)), env_(AddressLayout::env(cfg_))
{
    PARALOG_ASSERT(cfg_.sim.mode != MonitorMode::kTimesliced,
                   "use Timesliced for the timesliced baseline");
    const bool monitoring = cfg_.sim.mode == MonitorMode::kParallel;
    const std::uint32_t k = cfg_.sim.appThreads;
    const std::uint32_t cores = cfg_.sim.totalCores();

    mem_ = std::make_unique<MemorySystem>(cfg_.sim, cores);
    heap_ = std::make_unique<Heap>(AddressLayout::kHeapBase,
                                   AddressLayout::kHeapBytes, k);

    if (monitoring) {
        mon_.lifeguard =
            cfg_.customLifeguard
                ? cfg_.customLifeguard(k)
                : makeLifeguard(cfg_.lifeguard, k,
                                cfg_.sim.effectiveShadowShards(k));
        policy_ = mon_.lifeguard->policy();
        if (concurrentLive()) {
            // The host-parallel live engine relies on the CA barriers
            // to order cross-stream delivery (it cannot fall back to
            // the serial scheduler's interleaving), and on sharded
            // shadow-memory locking for cross-thread metadata.
            PARALOG_ASSERT(cfg_.sim.conflictAlerts,
                           "live --lg-threads requires ConflictAlert "
                           "broadcasts enabled");
            mon_.lifeguard->shadow().setConcurrent(true);
        }
    }

    if (cfg_.sim.memoryModel == MemoryModel::kTSO) {
        auto tso = std::make_unique<TsoDataPath>(cfg_.sim, *mem_, *this,
                                                 cores);
        tsoPath_ = tso.get();
        dataPath_ = std::move(tso);
    } else {
        dataPath_ = std::make_unique<ScDataPath>(*mem_);
    }

    interp_ = std::make_unique<Interpreter>(cfg_.sim, *dataPath_, *mem_,
                                            *heap_, locks_, barriers_,
                                            *this);

    mon_.progress = std::make_unique<ProgressTable>(k);
    mon_.caMgr = std::make_unique<CaManager>(k);

    std::shared_ptr<Workload> workload = cfg_.customWorkload;
    if (!workload)
        workload = makeWorkload(cfg_.workload);

    EventFilter filter;
    if (monitoring) {
        filter.regOps = policy_.wantsRegOps;
        filter.jumps = policy_.wantsJumps;
        filter.heapOnly = policy_.heapOnly;
        filter.heapArena = heap_->arena();
    }

    if (cfg_.recorder) {
        PARALOG_ASSERT(monitoring,
                       "trace recording requires parallel monitoring");
        cfg_.recorder->setFilterBits(packFilterBits(filter));
    }

    for (ThreadId t = 0; t < k; ++t) {
        if (monitoring) {
            mon_.captures.push_back(
                std::make_unique<CaptureUnit>(t, cfg_.sim, filter));
            if (cfg_.traceCapture)
                mon_.captures.back()->setTraceSink(&trace_);
            if (cfg_.recorder)
                mon_.captures.back()->setJournal(cfg_.recorder);
        } else {
            mon_.captures.push_back(nullptr);
        }

        auto tc = std::make_unique<ThreadContext>(
            t, workload->makeThread(t, env_));
        mem_->bindThread(t, t);

        AppCore::CaBroadcastFn ca_fn;
        if (monitoring) {
            ca_fn = [this](ThreadId tid, RecordId rid, HighLevelKind kind,
                           const AddrRange &range) {
                return caBroadcast(tid, rid, kind, range);
            };
        }
        appCores_.push_back(std::make_unique<AppCore>(
            t, std::move(tc), mon_.captures[t].get(), *interp_, *mem_,
            cfg_.sim, monitoring, std::move(ca_fn)));
    }

    if (monitoring) {
        for (ThreadId t = 0; t < k; ++t) {
            // The concurrent live engine relaxes lifeguard timing: the
            // timed memory hierarchy is single-threaded simulation
            // state, so host-parallel lifeguard cores run with untimed
            // metadata accesses (exactly like concurrent replay).
            mon_.lgCores.push_back(std::make_unique<LifeguardCore>(
                k + t, t, cfg_.sim, *mon_.captures[t], *mon_.progress,
                *mon_.caMgr, *mon_.lifeguard,
                concurrentLive() ? nullptr : mem_.get(), mon_.versions, 1));
            if (trace::TraceRecorder *rec = cfg_.recorder;
                rec && !concurrentLive()) {
                // The latency sideband describes the serial schedule's
                // metadata access sequence; live-parallel recordings
                // carry none (replay re-monitors them result-only).
                mon_.lgCores.back()->ctx().setMetaLatencyTee(
                    [rec, t](Cycle latency) {
                        rec->onMetaLatency(t, latency);
                    });
            }
        }
    }
}

Platform::~Platform() = default;

Cycle
Platform::caBroadcast(ThreadId tid, RecordId rid, HighLevelKind kind,
                      const AddrRange &range)
{
    bool subscribed = false;
    switch (kind) {
      case HighLevelKind::kMallocEnd:
        subscribed = policy_.caOnMalloc;
        break;
      case HighLevelKind::kFreeBegin:
        subscribed = policy_.caOnFree;
        break;
      case HighLevelKind::kSyscallBegin:
      case HighLevelKind::kSyscallEnd:
        subscribed = policy_.caOnSyscall;
        break;
    }
    if (!subscribed)
        return 0;

    std::vector<CaptureUnit *> units;
    std::vector<bool> alive;
    units.reserve(mon_.captures.size());
    for (ThreadId t = 0; t < mon_.captures.size(); ++t) {
        units.push_back(mon_.captures[t].get());
        alive.push_back(appCores_[t]->active());
    }
    Cycle lat = mon_.caMgr->broadcast(tid, rid, kind, range, units, alive);
    std::uint64_t seq = mon_.caMgr->issued() - 1;

    // Annotate the issuer's high-level record so its lifeguard enforces
    // the issuer half of the barrier.
    if (EventRecord *rec = mon_.captures[tid]->buffer().findByRid(rid))
        rec->caSeq = seq;
    // Journal the barrier bookkeeping (the arrival records themselves
    // were journalled by the appendCa calls above). Copy-out lookup:
    // in concurrent live mode consumer threads retire barrier entries
    // (noteWaiterPassed/noteIssuerDelivered) concurrently with this
    // producer-side hook, so a find() pointer could be invalidated
    // mid-read.
    if (cfg_.recorder) {
        CaBroadcast b;
        // Always live here: the CA records that let consumers retire
        // the entry are still unpublished in the issuing step.
        PARALOG_ASSERT(mon_.caMgr->lookup(seq, b),
                       "CA broadcast %llu retired before journaling",
                       static_cast<unsigned long long>(seq));
        cfg_.recorder->onCaBroadcast(b);
    }
    return lat;
}

bool
Platform::lifeguardDrained(ThreadId tid)
{
    if (cfg_.sim.mode == MonitorMode::kNoMonitoring)
        return true;
    // Producer-side drain test. Identical to consumerEmpty() in serial
    // mode (no ring attached), but safe for the concurrent live engine,
    // where this hook runs on the producer thread and must not touch
    // the ring's consumer face.
    return mon_.captures[tid]->drainedForSyscall();
}

void
Platform::attachArcsToPending(ThreadId tid, RecordId rid,
                              const std::vector<RawArc> &arcs)
{
    if (mon_.captures[tid])
        mon_.captures[tid]->attachArcs(rid, arcs);
}

void
Platform::onScViolation(ThreadId writer_tid, RecordId writer_rid, Addr addr,
                        std::uint8_t size, const VersionRequest &reader)
{
    if (!mon_.captures[writer_tid] || !mon_.captures[reader.readerTid])
        return;
    VersionTag v{reader.readerTid, reader.readerRid};
    // Annotate the reader's pending load first; if it was already
    // consumed the reader's lifeguard read the pre-overwrite metadata,
    // which is exactly the versioned value — nothing to do.
    if (!mon_.captures[reader.readerTid]->annotateConsume(reader.readerRid, v))
        return;
    mon_.captures[writer_tid]->insertProduceBefore(writer_rid, v, addr, size);
}

void
Platform::setVisibilityLimit(ThreadId tid, RecordId limit)
{
    if (tid < mon_.captures.size() && mon_.captures[tid])
        mon_.captures[tid]->setVisibilityLimit(limit);
}

RunResult
Platform::run()
{
    if (concurrentLive())
        return runConcurrentLive();
    SerialScheduler scheduler(RunGuard("live", "deadlock or runaway workload",
                                       cfg_.maxCycles,
                                       cfg_.stallWatchdogIters),
                              mon_);
    return collectResult(scheduler.run(*this));
}

RunResult
Platform::collectResult(Cycle total_cycles)
{
    RunResult result = mon_.result(total_cycles);
    for (auto &c : appCores_) {
        c->stats.programInsts = c->tc().programInsts;
        result.app.push_back(c->stats);
    }
    return result;
}

Cycle
Platform::drainReady() const
{
    Cycle next = ~Cycle{0};
    if (tsoPath_) {
        for (CoreId core = 0; core < cfg_.sim.appThreads; ++core)
            next = std::min(next, tsoPath_->nextDrainReady(core));
    }
    return next;
}

void
Platform::produce(Cycle now, std::uint64_t)
{
    // Journal phase stamp: every producer-side op recorded during this
    // phase carries (now, count of lifeguard steps so far), which is
    // exactly what the replay scheduler needs to interleave ops and
    // lifeguard steps in the recorded order (core/replay.cpp).
    if (cfg_.recorder)
        cfg_.recorder->setNow(now);
    for (auto &c : appCores_) {
        if (c->active() && c->busyUntil <= now)
            c->step(now);
    }
    if (tsoPath_) {
        for (CoreId core = 0; core < cfg_.sim.appThreads; ++core)
            tsoPath_->pump(core, now);
    }
}

void
Platform::lgStepped()
{
    if (cfg_.recorder)
        cfg_.recorder->noteLgStep();
}

void
Platform::dumpColumns(ThreadId t) const
{
    const AppCore &ac = *appCores_[t];
    std::fprintf(stderr,
                 " | app active=%d retired=%llu reason=%d busyUntil=%llu",
                 ac.active() ? 1 : 0,
                 static_cast<unsigned long long>(ac.tc().retired),
                 static_cast<int>(ac.tc().blockReason),
                 static_cast<unsigned long long>(ac.busyUntil));
    if (tsoPath_) {
        const CoreId core = static_cast<CoreId>(t);
        std::fprintf(stderr, " storeBuf=%zu oldestRetire=%llu",
                     tsoPath_->depth(core),
                     static_cast<unsigned long long>(
                         tsoPath_->oldestStoreRetire(core)));
    }
}

} // namespace paralog
