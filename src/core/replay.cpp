#include "core/replay.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <optional>

#include "common/logging.hpp"
#include "core/lifeguard_threads.hpp"

namespace paralog {

using trace::OpCode;
using trace::TraceOp;

ReplayCore::ReplayCore(ThreadId tid, trace::TraceReader &reader,
                       CaptureUnit &unit, CaManager &ca,
                       const EventFilter *filter)
    : tid_(tid), unit_(unit), ca_(ca), filter_(filter),
      stream_(reader.opStream(tid))
{
}

const TraceOp *
ReplayCore::peek()
{
    if (!hasPending_ && !exhausted_) {
        if (stream_.next(pending_))
            hasPending_ = true;
        else
            exhausted_ = true;
    }
    return hasPending_ ? &pending_ : nullptr;
}

void
ReplayCore::apply()
{
    PARALOG_ASSERT(hasPending_, "replay apply without a pending op");
    TraceOp &op = pending_;
    switch (op.op) {
      case OpCode::kRetire:
        unit_.setRetired(op.retired);
        break;
      case OpCode::kAppend:
      case OpCode::kAppendCa:
        // Cross-lifeguard replays re-filter the recorded stream for the
        // new monitor's registered interests, mirroring the live
        // capture unit: dropped records' arcs carry forward to the next
        // surviving record so ordering stays conservative.
        if (filter_ && !filter_->wants(op.rec)) {
            for (const DepArc &a : op.rec.arcs)
                arcsCarry_.push_back(a);
            droppedRids_.insert(op.rec.rid);
            break;
        }
        if (filter_ && !arcsCarry_.empty()) {
            op.rec.arcs.insert(op.rec.arcs.begin(), arcsCarry_.begin(),
                               arcsCarry_.end());
            arcsCarry_.clear();
        }
        // The publication seal's input, equal to the live stamp (both
        // live loops journal at the cycle they step the app cores in).
        // CA arrivals keep 0, as live.
        if (op.op == OpCode::kAppend)
            op.rec.appendCycle = op.cycle;
        unit_.replayAppend(std::move(op.rec), op.chargedBytes,
                           op.op == OpCode::kAppendCa);
        break;
      case OpCode::kAttachArcs:
        // Three cases for the target record: still pending (attach, the
        // common one), dropped by *this replay's* re-filter (carry the
        // arcs forward, as a live capture of the new lifeguard would),
        // or absent from the recorded stream too (the recording's own
        // filter dropped it — the arcs were live-carried and already
        // sit inside a later journalled append; adding them again would
        // double-count).
        if (filter_ && !unit_.buffer().findByRid(op.rid) &&
            droppedRids_.count(op.rid)) {
            for (const DepArc &a : op.arcs)
                arcsCarry_.push_back(a);
            break;
        }
        unit_.replayAttachArcs(op.rid, op.arcs);
        break;
      case OpCode::kAnnotateConsume:
        unit_.annotateConsume(op.rid, op.version);
        break;
      case OpCode::kInsertProduce:
        unit_.insertProduceBefore(op.rid, op.version, op.addr, op.size);
        break;
      case OpCode::kVisLimit:
        unit_.setVisibilityLimit(op.visLimit);
        break;
      case OpCode::kCaBroadcast:
        // Mirrors Platform::caBroadcast: restore the barrier entry and
        // annotate the issuer's pending high-level record.
        if (EventRecord *rec =
                unit_.buffer().findByRid(op.ca.issuerEventRid))
            rec->caSeq = op.ca.seq;
        ca_.injectBroadcast(std::move(op.ca));
        break;
    }
    hasPending_ = false;
}

ReplayPlatform::ReplayPlatform(ReplayConfig cfg)
    : cfg_(std::move(cfg)),
      reader_(cfg_.path,
              trace::TraceReader::Options{
                  true, cfg_.decodeJobs > 1 ? cfg_.decodeJobs : 1}),
      lifeguardKind_(cfg_.lifeguard)
{
    if (!reader_.ok())
        panic("replay: %s", reader_.error().c_str());
    const trace::TraceConfig &tc = reader_.config();
    PARALOG_ASSERT(tc.mode == MonitorMode::kParallel,
                   "replay requires a parallel-monitoring recording");

    sim_ = tc.toSimConfig();
    if (cfg_.shadowShards != ReplayConfig::kKeepRecorded)
        sim_.shadowShards = cfg_.shadowShards;
    k_ = tc.appThreads;
    if (!cfg_.lifeguardOverride)
        lifeguardKind_ = tc.lifeguard;
    sameLifeguard_ = (lifeguardKind_ == tc.lifeguard);
    liveParallelRec_ = tc.liveParallel;
    // Live-parallel recordings carry no lifeguard-step stamps (the
    // consumers ran on host threads the journal never saw), so the
    // serial scheduler has no recorded interleaving to reproduce:
    // same-lifeguard replays of them always go through the
    // protocol-enforced concurrent engine (possibly with a single
    // consumer thread). Cross-lifeguard replays of any recording stay
    // on the serial engine (approximate, unverified).
    concurrent_ = cfg_.lgThreads >= 2 ||
                  (liveParallelRec_ && sameLifeguard_);
    // Recordings use canonical single-pop delivery (see
    // recordExperiment): the journal's lifeguard-step stamps only line
    // up when replay steps the same way. The concurrent engine ignores
    // the step stamps entirely (delivery order is protocol-enforced,
    // not schedule-reproduced), so it may batch freely.
    sim_.deliverBatchMax = concurrent() ? 16 : 1;

    if (concurrent()) {
        // Cross-lifeguard replays re-filter streams and use a fresh
        // timed memory hierarchy; both are engineered for the serial
        // scheduler. Restrict the host-parallel engine to the recorded
        // lifeguard, where delivery is fully protocol-enforced.
        PARALOG_ASSERT(sameLifeguard_,
                       "concurrent replay (--lg-threads) requires "
                       "replaying the recorded lifeguard");
        // High-level handlers (allocation fills, range checks) touch
        // metadata of whole ranges non-atomically; their exclusivity
        // rests on the two-sided ConflictAlert barriers. A recording
        // made without them cannot be monitored concurrently.
        PARALOG_ASSERT(sim_.conflictAlerts,
                       "concurrent replay requires a recording made "
                       "with ConflictAlert broadcasts enabled");
    }

    mon_.lifeguard = makeLifeguard(lifeguardKind_, k_,
                                   sim_.effectiveShadowShards(k_));
    if (concurrent())
        mon_.lifeguard->shadow().setConcurrent(true);
    mon_.progress = std::make_unique<ProgressTable>(k_);
    mon_.caMgr = std::make_unique<CaManager>(k_);

    if (!sameLifeguard_) {
        // Fresh metadata hierarchy: plausible timing, no recorded
        // latencies to consume (the recording's latency sideband
        // matches the recorded lifeguard's access sequence only).
        mem_ = std::make_unique<MemorySystem>(sim_, sim_.totalCores());

        const LifeguardPolicy policy = mon_.lifeguard->policy();
        std::uint8_t bits = tc.filterBits;
        if ((policy.wantsRegOps && !(bits & trace::kFilterRegOps)) ||
            (policy.wantsJumps && !(bits & trace::kFilterJumps)) ||
            (!policy.heapOnly && (bits & trace::kFilterHeapOnly))) {
            warn("replay: the recording's event filter (%s) captured "
                 "fewer event classes than %s registers for; results "
                 "are approximate",
                 toString(tc.lifeguard), toString(lifeguardKind_));
        }
        filter_.regOps = policy.wantsRegOps;
        filter_.jumps = policy.wantsJumps;
        filter_.heapOnly = policy.heapOnly;
        filter_.heapArena =
            AddrRange{AddressLayout::kHeapBase,
                      AddressLayout::kHeapBase + AddressLayout::kHeapBytes};
    }

    mon_.captures.reserve(k_);
    mon_.lgCores.reserve(k_);
    replayCores_.reserve(k_);
    latStreams_.reserve(k_);
    for (ThreadId t = 0; t < k_; ++t) {
        // The capture units carry no filter of their own: same-monitor
        // replays feed the journal verbatim (it already holds the
        // recorded post-filter records); cross-monitor replays
        // re-filter in the ReplayCore.
        mon_.captures.push_back(
            std::make_unique<CaptureUnit>(t, sim_, EventFilter{}));
        replayCores_.push_back(std::make_unique<ReplayCore>(
            t, reader_, *mon_.captures[t], *mon_.caMgr,
            sameLifeguard_ ? nullptr : &filter_));
    }
    for (ThreadId t = 0; t < k_; ++t) {
        mon_.lgCores.push_back(std::make_unique<LifeguardCore>(
            k_ + t, t, sim_, *mon_.captures[t], *mon_.progress, *mon_.caMgr,
            *mon_.lifeguard, sameLifeguard_ ? nullptr : mem_.get(),
            mon_.versions, 1));
        // The concurrent engine relaxes timing: no latency oracle (and
        // no memory system), so metadata accesses are untimed — the
        // recorded latency sideband describes the serial schedule's
        // access sequence, which concurrent delivery does not reproduce.
        if (sameLifeguard_ && !concurrent()) {
            latStreams_.push_back(reader_.latencyStream(t));
            mon_.lgCores.back()->ctx().setMetaLatencyOracle(
                [this, t]() -> Cycle {
                    Cycle latency = 0;
                    if (!latStreams_[t].next(latency))
                        panic("replay diverged: lifeguard %u performed "
                              "more metadata accesses than recorded",
                              t);
                    return latency;
                });
        }
    }
}

ReplayPlatform::~ReplayPlatform() = default;

void
ReplayPlatform::dumpColumns(ThreadId t)
{
    if (const TraceOp *op = replayCores_[t]->peek()) {
        std::fprintf(stderr,
                     " | next op=%u gseq=%llu cycle=%llu lgStep=%llu",
                     static_cast<unsigned>(op->op),
                     static_cast<unsigned long long>(op->gseq),
                     static_cast<unsigned long long>(op->cycle),
                     static_cast<unsigned long long>(op->lgStep));
    } else {
        std::fprintf(stderr, " | journal exhausted");
    }
}

std::uint64_t
ReplayPlatform::shadowFingerprint() const
{
    const ShadowMemory &s = mon_.lifeguard->shadow();
    return paralog::shadowFingerprint(s, AddressLayout::kHeapBase,
                                      1 << 20) ^
           paralog::shadowFingerprint(s, AddressLayout::kGlobalBase,
                                      1 << 16);
}


Cycle
ReplayPlatform::nextReady()
{
    Cycle next = ~Cycle{0};
    for (auto &p : replayCores_) {
        if (const TraceOp *op = p->peek())
            next = std::min(next, op->cycle);
    }
    return next;
}

void
ReplayPlatform::produce(Cycle now, std::uint64_t lg_steps)
{
    // Ops stamped with a later lifeguard-step count wait: they were
    // recorded in a later scheduler iteration at this same cycle, after
    // lifeguard steps that have not run yet. (The step stamps describe
    // the *recorded* lifeguard's cadence; replaying a different
    // lifeguard ignores them and applies ops purely by cycle: its
    // interleaving has no recording to match.)
    for (;;) {
        ReplayCore *best = nullptr;
        std::uint64_t best_gseq = ~0ULL;
        for (auto &p : replayCores_) {
            const TraceOp *op = p->peek();
            if (op && op->cycle <= now &&
                (!sameLifeguard_ || op->lgStep <= lg_steps) &&
                op->gseq < best_gseq) {
                best = p.get();
                best_gseq = op->gseq;
            }
        }
        if (!best)
            break;
        best->apply();
    }
}

RunResult
ReplayPlatform::run()
{
    if (concurrent())
        return runConcurrent();
    SerialScheduler scheduler(RunGuard("replay",
                                       "journal/lifeguard divergence",
                                       cfg_.maxCycles,
                                       cfg_.stallWatchdogIters),
                              mon_);
    RunResult result = collectResult(scheduler.run(*this));

    // The oracle panics when a lifeguard performs *more* metadata
    // accesses than recorded; the opposite divergence — recorded
    // latencies left unconsumed — is checked here (a warning in
    // diagnosis mode, where the run is allowed to finish).
    for (ThreadId t = 0; t < latStreams_.size(); ++t) {
        if (latStreams_[t].exhausted())
            continue;
        if (cfg_.verify)
            panic("replay diverged: lifeguard %u performed fewer "
                  "metadata accesses than recorded",
                  t);
        warn("replay: lifeguard %u left recorded metadata-access "
             "latencies unconsumed (divergence)",
             t);
    }

    if (sameLifeguard_ && cfg_.verify)
        verifyAgainstFooter(result);
    return result;
}

RunResult
ReplayPlatform::collectResult(Cycle total_cycles)
{
    RunResult result = mon_.result(total_cycles);
    result.app = reader_.footer().app; // no application ran: recorded
    result.shadowFingerprint = shadowFingerprint();
    return result;
}

namespace {

/**
 * One stream's retire cycles from its TSO visibility limit (the oldest
 * buffered store) on, taken from the journal's kRetire ticks: the cycle
 * rid r retired at is the store's AccessTag retire cycle, which is the
 * live watermark's input (TsoDataPath::oldestStoreRetire).
 */
class RetireLog
{
  public:
    void
    onRetire(RecordId retired, Cycle cycle, RecordId vis_limit)
    {
        if (vis_limit == kInvalidRecord) {
            // No buffered store: the next limit names an unretired rid.
            cycles_.clear();
            base_ = retired;
            return;
        }
        while (base_ + cycles_.size() < retired)
            cycles_.push_back(cycle);
    }

    void
    onVisLimit(RecordId limit)
    {
        while (limit != kInvalidRecord && base_ < limit &&
               !cycles_.empty()) {
            cycles_.pop_front();
            ++base_;
        }
    }

    Cycle
    retireCycle(RecordId rid) const
    {
        PARALOG_ASSERT(rid >= base_ && rid - base_ < cycles_.size(),
                       "concurrent replay: store %llu has no journalled "
                       "retire tick",
                       static_cast<unsigned long long>(rid));
        return cycles_[rid - base_];
    }

  private:
    RecordId base_ = 0; ///< rid of cycles_.front()
    std::deque<Cycle> cycles_;
};

} // namespace

RunResult
ReplayPlatform::runConcurrent()
{
    // At least one consumer: live-parallel recordings select this engine
    // even when no --lg-threads was requested (see the constructor).
    LifeguardThreads pool(
        mon_, std::max<std::uint32_t>(1, std::min(cfg_.lgThreads, k_)),
        lifeguardKind_ == LifeguardKind::kLockSet);

    std::vector<RetireLog> retires(k_);
    auto watermark = [&] {
        Cycle w = ~Cycle{0};
        for (ThreadId t = 0; t < k_; ++t) {
            RecordId limit = mon_.captures[t]->visibilityLimit();
            if (limit != kInvalidRecord)
                w = std::min(w, retires[t].retireCycle(limit));
        }
        return w;
    };

    // The journal holds consume-annotation *attempts*; one took effect
    // iff its produce follows at the next gseq, so it is held until that
    // op shows. Serial recordings also attempt annotations on loads
    // their lifeguard had already consumed. The online seal keeps such
    // a load pending, so instead of a version it gets the order the
    // recording saw: an arc from the draining store to the load.
    struct Attempt
    {
        ThreadId tid;
        RecordId rid;
        VersionTag version;
    };
    std::optional<Attempt> held;
    std::vector<DepArc> failed; ///< awaiting the draining store's thread

    Cycle cycle = 0;
    while (!pool.aborted()) {
        ThreadId t = kInvalidThread;
        std::uint64_t best_gseq = ~0ULL;
        for (ThreadId i = 0; i < k_; ++i) {
            const TraceOp *op = replayCores_[i]->peek();
            if (op && op->gseq < best_gseq) {
                t = i;
                best_gseq = op->gseq;
            }
        }
        if (t == kInvalidThread)
            break;
        ReplayCore &producer = *replayCores_[t];
        const TraceOp &op = *producer.peek();
        // Publish between cycles only: one app step's ops (a CA
        // broadcast's arrivals and its issuer stamp, say) share a cycle.
        if (op.cycle > cycle) {
            pool.publish(watermark());
            cycle = op.cycle;
        }

        if (held) {
            CaptureUnit &reader = *mon_.captures[held->tid];
            const EventRecord *load =
                reader.buffer().findByRidPreferMemAccess(held->rid);
            if (op.op == OpCode::kInsertProduce &&
                op.version == held->version) {
                PARALOG_ASSERT(reader.annotateConsume(held->rid,
                                                      held->version),
                               "concurrent replay: consume annotation on "
                               "stream %u rid %llu found no pending load",
                               held->tid,
                               static_cast<unsigned long long>(held->rid));
            } else if (load && !(load->consumesVersion &&
                                 load->version == held->version)) {
                failed.push_back(DepArc{held->tid, held->rid});
            }
            held.reset();
        }
        if (!failed.empty() && (op.op == OpCode::kInsertProduce ||
                                op.op == OpCode::kVisLimit)) {
            // The drain raising the attempts ends by moving the draining
            // thread's limit, which until then still names the store.
            CaptureUnit &writer = *mon_.captures[t];
            if (EventRecord *store = writer.buffer().findStoreByRid(
                    writer.visibilityLimit()))
                store->arcs.insert(store->arcs.end(), failed.begin(),
                                   failed.end());
            failed.clear();
        }

        switch (op.op) {
          case OpCode::kAnnotateConsume:
            held = Attempt{t, op.rid, op.version};
            producer.skip();
            continue;
          case OpCode::kRetire:
            retires[t].onRetire(op.retired, op.cycle,
                                mon_.captures[t]->visibilityLimit());
            break;
          case OpCode::kVisLimit:
            retires[t].onVisLimit(op.visLimit);
            break;
          default:
            break;
        }
        producer.apply();
    }

    pool.finish("concurrent replay", cfg_.stallWatchdogIters,
                [this](ThreadId t) { dumpColumns(t); });

    Cycle total = 0;
    for (auto &c : mon_.lgCores)
        total = std::max(total, c->busyUntil);
    RunResult result = collectResult(total);
    if (cfg_.verify)
        verifyAgainstFooter(result);
    return result;
}

void
ReplayPlatform::verifyAgainstFooter(const RunResult &result) const
{
    const trace::TraceFooter &f = reader_.footer();
    const char *engine = concurrent_ ? "concurrent replay" : "replay";
    auto check = [engine](const char *what, std::uint64_t got,
                          std::uint64_t want) {
        if (got != want)
            panic("%s diverged from the recording: %s = %llu, recorded "
                  "%llu",
                  engine, what, static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    };
    check("shadow fingerprint", result.shadowFingerprint,
          f.shadowFingerprint);
    // Older recordings predate the footer's violation fingerprint.
    if (f.hasViolationFingerprint)
        check("violation fingerprint", result.violationFingerprint,
              f.violationFingerprint);
    check("versions produced", result.versionsProduced, f.versionsProduced);
    check("versions consumed", result.versionsConsumed, f.versionsConsumed);
    PARALOG_ASSERT(result.lifeguard.size() == f.lifeguard.size(),
                   "recorded lifeguard thread count mismatch");
    for (std::size_t i = 0; i < f.lifeguard.size(); ++i)
        check("records processed", result.lifeguard[i].recordsProcessed,
              f.lifeguard[i].recordsProcessed);
    if (concurrent_) {
        // Violation *reports* are a delivery-schedule quantity: the
        // Idempotent Filters absorb repeated checks, and how many they
        // absorb depends on stall-flush timing, which free-running
        // consumers cannot reproduce. A first occurrence can never be
        // absorbed, though, so found-any must agree. Timing columns
        // are relaxed.
        if ((result.violationCount == 0) != (f.violations == 0))
            check("violations (found-any)", result.violationCount,
                  f.violations);
        return;
    }
    check("total cycles", result.totalCycles, f.totalCycles);
    check("violations", result.violationCount, f.violations);
    check("version stall retries", result.versionStallRetries,
          f.versionStallRetries);
    for (std::size_t i = 0; i < f.lifeguard.size(); ++i) {
        const LifeguardThreadStats &got = result.lifeguard[i];
        const LifeguardThreadStats &want = f.lifeguard[i];
        check("lifeguard useful cycles", got.usefulCycles,
              want.usefulCycles);
        check("lifeguard dep stall", got.depStall, want.depStall);
        check("lifeguard CA stall", got.caStall, want.caStall);
        check("lifeguard version stall", got.versionStall,
              want.versionStall);
        check("lifeguard app stall", got.appStall, want.appStall);
        check("events handled", got.eventsHandled, want.eventsHandled);
        check("lifeguard done cycle", got.doneAt, want.doneAt);
    }
}

} // namespace paralog
