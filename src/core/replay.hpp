/**
 * @file
 * Replay execution mode: re-monitor a recorded run from its
 * `paralog-trace-v1` journal, with no application cores.
 *
 * One ReplayCore per recorded application thread re-applies the
 * journalled producer-side stream mutations (appends, CA insertions,
 * TSO annotations, visibility-limit moves, retire ticks) at their
 * recorded simulated cycles — and, within a cycle, only after the
 * recorded number of global lifeguard steps. The journal is a producer
 * of the same serial scheduler that ran the live recording
 * (core/serial_scheduler.hpp), so this reproduces the live
 * producer/consumer interleaving exactly. The lifeguard
 * cores, order enforcers, accelerators, progress table, ConflictAlert
 * barriers and version store are the real ones, so when the recorded
 * lifeguard is replayed the delivery order, lifeguard results, shadow
 * fingerprint and every stats column reproduce the live run
 * bit-identically (self-checked against the trace footer).
 *
 * Replaying under a *different* lifeguard re-monitors the same event
 * streams: results are genuine analysis output, but the recording only
 * contains what the recorded lifeguard's event filter captured, and
 * metadata-access timing uses a fresh memory hierarchy (no application
 * interference), so cross-lifeguard replays are approximate in timing
 * and in any events the recorded filter dropped.
 */

#ifndef PARALOG_CORE_REPLAY_HPP
#define PARALOG_CORE_REPLAY_HPP

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/lifeguard_core.hpp"
#include "core/platform.hpp"
#include "trace/trace_reader.hpp"

namespace paralog {

struct ReplayConfig
{
    std::string path;
    /// Replay under this lifeguard instead of the recorded one.
    bool lifeguardOverride = false;
    LifeguardKind lifeguard = LifeguardKind::kTaintCheck;
    /// Shadow shard override (results are shard-count invariant);
    /// kKeepRecorded leaves the recorded value.
    static constexpr std::uint32_t kKeepRecorded = 0xFFFFFFFFu;
    std::uint32_t shadowShards = kKeepRecorded;
    std::uint64_t maxCycles = 1ULL << 36;
    std::uint64_t stallWatchdogIters = 2'000'000;
    /// Skip the footer self-check (divergence diagnosis tooling).
    bool verify = true;
    /**
     * Host lifeguard threads. 0 and 1 select the serial engine
     * (bit-identical, footer-verified). >= 2 selects the concurrent
     * engine: the calling thread re-applies the journal while
     * min(lgThreads, k) consumer threads run the lifeguard cores
     * (core/lifeguard_threads.hpp), gated by the same online
     * publication seal as live --lg-threads runs, with the watermark
     * derived from the journal's retire ticks. Analysis results (shadow
     * fingerprint, violations, records processed, versions) stay
     * identical to the serial engine; simulated *timing* is relaxed.
     */
    std::uint32_t lgThreads = 0;
    /**
     * Worker threads for decoding v2 ops chunks at open (> 1 decodes
     * every chunk eagerly in parallel; 0/1 decodes lazily as replay
     * reaches each chunk). No effect on v1 recordings. Results are
     * identical either way — this is purely a wall-clock knob.
     */
    std::uint32_t decodeJobs = 1;
};

/** Feeds one recorded thread's journal into its capture unit. */
class ReplayCore
{
  public:
    /** @p filter re-filters replayed appends for a lifeguard other
     *  than the recorded one (null = replay verbatim). Carried arcs of
     *  dropped records move to the next surviving record, like the
     *  live capture unit's conservative carry. */
    ReplayCore(ThreadId tid, trace::TraceReader &reader,
               CaptureUnit &unit, CaManager &ca,
               const EventFilter *filter = nullptr);

    /** The next journal op not yet applied, or nullptr at stream end. */
    const trace::TraceOp *peek();

    /** Apply the pending op to the capture unit / CA manager. */
    void apply();

    /** Drop the pending op unapplied (the concurrent engine resolves
     *  consume-annotation attempts itself). */
    void skip() { hasPending_ = false; }

    bool done() { return peek() == nullptr; }

  private:
    ThreadId tid_;
    CaptureUnit &unit_;
    CaManager &ca_;
    const EventFilter *filter_;
    std::vector<DepArc> arcsCarry_; ///< arcs of re-filtered records
    /// Rids this replay's re-filter dropped: a later kAttachArcs to one
    /// of them must carry its arcs (live capture would), while arcs to
    /// records the *recording* never held are already carried inside a
    /// later journalled append.
    std::unordered_set<RecordId> droppedRids_;
    trace::TraceReader::OpStream stream_;
    trace::TraceOp pending_;
    bool hasPending_ = false;
    bool exhausted_ = false;
};

class ReplayPlatform
{
  public:
    explicit ReplayPlatform(ReplayConfig cfg);
    ~ReplayPlatform();

    /** Replay to completion. Same-lifeguard replays self-check against
     *  the recorded footer and panic on any divergence. */
    RunResult run();

    const trace::TraceReader &reader() const { return reader_; }
    const trace::TraceConfig &recordedConfig() const
    {
        return reader_.config();
    }
    LifeguardKind lifeguardKind() const { return lifeguardKind_; }
    bool replaysRecordedLifeguard() const { return sameLifeguard_; }
    Lifeguard &lifeguard() { return *mon_.lifeguard; }

    /** True when run() will use the host-parallel engine. Besides the
     *  explicit --lg-threads opt-in, recordings made by the live
     *  host-parallel engine select it implicitly (same-lifeguard
     *  replays only): their journals carry no lifeguard-step stamps,
     *  so the serial scheduler has no interleaving to reproduce — the
     *  protocol-enforced engine re-monitors them result-exact. */
    bool concurrent() const { return concurrent_; }

    /** The recording was made by the live host-parallel engine
     *  (trace::kCfgLiveParallel). */
    bool recordedLiveParallel() const { return liveParallelRec_; }

    /** Heap + global segment fingerprint (as the footer records it). */
    std::uint64_t shadowFingerprint() const;

  private:
    RunResult runConcurrent();
    RunResult collectResult(Cycle total_cycles);
    /// Every column for the serial engine; results only (no timing)
    /// for the concurrent one.
    void verifyAgainstFooter(const RunResult &result) const;

    // --- producer (core/serial_scheduler.hpp): the journal ---
    friend class SerialScheduler;
    Cycle nextReady(); ///< the earliest pending op's recorded cycle
    /// Apply every op due at @p now whose recorded lifeguard-step stamp
    /// @p lg_steps has reached, in global journal order.
    void produce(Cycle now, std::uint64_t lg_steps);
    /// A pending op gated on a future lifeguard step has cycle <= now
    /// and pins the horizon to now: conservative, and batching is
    /// result-invariant.
    Cycle horizon() { return nextReady(); }
    void lgStepped() {}
    std::uint64_t producerSignature(std::uint64_t s) const { return s; }
    void dumpColumns(ThreadId t);

    ReplayConfig cfg_;
    trace::TraceReader reader_;
    SimConfig sim_;
    std::uint32_t k_ = 0;
    LifeguardKind lifeguardKind_;
    bool sameLifeguard_ = true;
    bool liveParallelRec_ = false; ///< header kCfgLiveParallel bit
    bool concurrent_ = false;      ///< resolved engine choice (ctor)

    /// Fresh metadata memory hierarchy for cross-lifeguard replays
    /// (same-lifeguard replays consume the recorded latency sideband).
    std::unique_ptr<MemorySystem> mem_;
    EventFilter filter_; ///< cross-lifeguard re-filtering
    Monitor mon_;
    std::vector<std::unique_ptr<ReplayCore>> replayCores_;
    std::vector<trace::TraceReader::LatencyStream> latStreams_;
};

} // namespace paralog

#endif // PARALOG_CORE_REPLAY_HPP
