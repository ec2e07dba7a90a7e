/**
 * @file
 * Per-application-thread event capture + order capture component
 * (left half of Figure 2): assigns record IDs, filters events according
 * to the lifeguard's registered interests (the "event mux" of Figure 1),
 * applies transitive arc reduction, and manages the log buffer shared
 * with the lifeguard core.
 */

#ifndef PARALOG_CAPTURE_CAPTURE_UNIT_HPP
#define PARALOG_CAPTURE_CAPTURE_UNIT_HPP

#include <atomic>
#include <cstdint>
#include <deque>

#include "app/event.hpp"
#include "capture/compressor.hpp"
#include "capture/journal.hpp"
#include "capture/log_buffer.hpp"
#include "capture/reduction.hpp"
#include "capture/trace.hpp"
#include "common/spsc_ring.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "sim/config.hpp"

namespace paralog {

/**
 * Which events the lifeguard registered for. Anything else is dropped at
 * capture time (it still retires and consumes a record ID).
 */
struct EventFilter
{
    bool regOps = true;    ///< kMovRR/kMovImm/kAlu (propagation lifeguards)
    bool loads = true;
    bool stores = true;
    bool jumps = true;
    bool heapOnly = false; ///< restrict loads/stores to the heap arena
    AddrRange heapArena{};

    bool wants(const EventRecord &rec) const;
};

class CaptureUnit
{
  public:
    CaptureUnit(ThreadId tid, const SimConfig &cfg, EventFilter filter)
        : tid_(tid), filter_(filter), buf_(cfg.logBufferBytes),
          filteredCtr_(stats.counter("filtered")),
          recordsCtr_(stats.counter("records")),
          recordsWithArcsCtr_(stats.counter("records_with_arcs"))
    {
    }

    ThreadId tid() const { return tid_; }

    /** True if there is room for the next record (producer may proceed). */
    bool canAppend() const { return !buf_.full(); }

    /**
     * Append a retired event. Applies the event filter and arc reduction;
     * returns true if a record was actually written to the stream.
     * Arc reduction runs even for filtered-out records (the hardware sees
     * all coherence traffic regardless of lifeguard interests).
     */
    bool append(const AppEvent &ev);

    /** Append a ConflictAlert record (broadcast insertion, never blocks). */
    void appendCa(EventRecord rec);

    /** Attach arcs discovered at TSO store-drain time to a pending record. */
    void attachArcs(RecordId rid, const std::vector<RawArc> &arcs);

    /** Annotate a pending load with a consume-version tag (TSO). Returns
     *  false if the record was already consumed (which is benign; see
     *  DESIGN.md). */
    bool annotateConsume(RecordId rid, const VersionTag &v);

    /** Insert a produce-version record before a pending store (TSO). */
    void insertProduceBefore(RecordId store_rid, const VersionTag &v,
                             Addr addr, std::uint8_t size);

    /** TSO visibility: records with rid >= limit are hidden from the
     *  consumer. kInvalidRecord = everything visible. */
    void
    setVisibilityLimit(RecordId limit)
    {
        visLimit_ = limit;
        if (journal_)
            journal_->onVisibilityLimit(tid_, limit);
    }
    RecordId visibilityLimit() const { return visLimit_; }

    /** Producer-side retire counter mirror (count of retired micro-ops). */
    void
    setRetired(RecordId retired)
    {
        retired_ = retired;
        if (journal_)
            journal_->onRetire(tid_, retired);
    }
    RecordId retired() const { return retired_; }

    // ---- consumer interface (order-enforcing component reads these) ----

    const EventRecord *
    peek() const
    {
        return ring_ ? ring_->front() : buf_.peek(visLimit_);
    }
    EventRecord
    pop()
    {
        if (ring_) {
            EventRecord rec = std::move(*ring_->front());
            ring_->pop();
            return rec;
        }
        return buf_.pop();
    }
    /** Discard the head after in-place processing (batch delivery). */
    void
    dropFront()
    {
        if (ring_)
            ring_->pop();
        else
            buf_.dropFront();
    }
    bool consumerEmpty() const { return peek() == nullptr; }

    /**
     * Largest "done count" the consumer may publish once it has drained
     * everything currently visible: all rids below this value either
     * never produced a record or have been consumed.
     */
    RecordId progressCeiling() const;

    // ---- concurrent (ring) hand-off mode --------------------------------

    /**
     * Switch the consumer face to a cross-thread SPSC ring (both
     * concurrent engines, via core/lifeguard_threads.hpp; null switches
     * back). publishSealed() then moves sealed records out of the log
     * buffer into the ring and advances the ceiling bound; the consumer
     * side of peek/pop/dropFront/progressCeiling reads the ring only.
     * Producer-side mutators (append/attachArcs/annotate/...) keep
     * operating on the log buffer and stay producer-thread-only.
     */
    void attachRing(SpscRing<EventRecord> *ring) { ring_ = ring; }

    /**
     * The online publication seal, shared by concurrent live and
     * concurrent replay: move every sealed head record into the ring
     * and advance the ceiling bound. A record is sealed once (a) it is
     * visible under the TSO visibility limit (all annotations —
     * drain-time arcs, consume versions, produce insertions — land on
     * records the limit still hides) and (b) its append cycle is at or
     * below @p watermark, the minimum retire cycle over all buffered
     * TSO stores: MemorySystem::addArcFrom raises a version request
     * only against an access that retired strictly *after* the draining
     * store, so no future drain can target a record published under
     * this rule. Live runs read the watermark from the store buffers,
     * replay derives it from the journal's retire ticks; under SC (or
     * with empty store buffers) it is Cycle max and the rule
     * degenerates to the visibility limit.
     *
     * Records sealed while the ring is full spill to an unbounded
     * producer-side overflow queue (FIFO with the ring) so the seal
     * never blocks the producer. This is the only code that moves
     * records into the ring. Producer-thread-only.
     */
    void publishSealed(Cycle watermark);

    /** True once every captured record has been handed to the ring
     *  (log buffer and overflow both empty). Producer-thread-only. */
    bool
    allPublished() const
    {
        return buf_.empty() && overflow_.empty();
    }

    /** Sealed-but-unpublished records waiting for ring space
     *  (producer-side; watchdog signature input). */
    std::size_t overflowSize() const { return overflow_.size(); }

    /** Current publication frontier (acquire; either side may read). */
    RecordId
    ceilingBound() const
    {
        return ceilingBound_.load(std::memory_order_acquire);
    }

    /**
     * Producer-side "stream drained" test for syscall delayed
     * advertising: no *visible* record is still waiting in the log
     * buffer. In serial mode this equals consumerEmpty(); in ring mode
     * it deliberately ignores the ring and overflow (records there are
     * sealed — the syscall's consumer-side ordering is enforced by the
     * CA arc chain, not by producer-side draining) and never touches
     * consumer-face state, so the producer thread may call it freely.
     */
    bool drainedForSyscall() const { return buf_.peek(visLimit_) == nullptr; }

    LogBuffer &buffer() { return buf_; }
    ArcReducer &reducer() { return reducer_; }
    StreamCompressor &compressor() { return compressor_; }

    /** Tee every captured record into @p sink (offline validation). */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /** Journal every producer-side stream mutation (record/replay). */
    void setJournal(CaptureJournal *journal) { journal_ = journal; }

    // ---- replay interface (core/replay.cpp applies journal ops) ----

    /** Re-apply a journalled append: the record is final as of append
     *  time (filter and arc reduction already ran when it was
     *  recorded), so it goes straight into the log buffer. Counter
     *  bookkeeping mirrors the live append paths (@p is_ca selects the
     *  appendCa accounting). */
    void
    replayAppend(EventRecord rec, std::uint32_t charged_bytes,
                 bool is_ca = false)
    {
        if (is_ca) {
            stats.counter("ca_records").inc();
        } else {
            recordsCtr_.inc();
            if (!rec.arcs.empty())
                recordsWithArcsCtr_.inc();
        }
        buf_.append(std::move(rec), charged_bytes);
    }

    /** Re-apply journalled drain-time arcs. When the record was
     *  filtered out at capture, the arcs were carried into the next
     *  captured record — whose journalled append already contains them
     *  — so a missing record means nothing to do here. */
    void
    replayAttachArcs(RecordId rid, const std::vector<DepArc> &kept)
    {
        if (EventRecord *rec = buf_.findByRid(rid)) {
            for (const DepArc &a : kept)
                rec->arcs.push_back(a);
        }
    }

    StatSet stats{"capture"};

  private:
    /** The log-buffer-side ceiling (the serial progressCeiling
     *  formula), regardless of ring mode; in ring mode publishSealed
     *  turns it into the ceiling bound. */
    RecordId bufferCeiling() const;

    ThreadId tid_;
    EventFilter filter_;
    LogBuffer buf_;
    ArcReducer reducer_;
    StreamCompressor compressor_;
    TraceSink *trace_ = nullptr;
    CaptureJournal *journal_ = nullptr;
    std::vector<std::uint8_t> codecScratch_; ///< journalled codec bytes
    RecordId retired_ = 0;
    RecordId visLimit_ = kInvalidRecord;
    /// Concurrent hand-off (attachRing): consumer face reads the ring.
    SpscRing<EventRecord> *ring_ = nullptr;
    /// Ring-mode progress bound: a consumer that has drained the ring
    /// may publish progress up to this value. publishSealed raises it
    /// (release) only after publishing every ring record it covers, and
    /// progressCeiling() reads it (acquire) *before* the ring head — so
    /// a bound seen together with an empty ring really means every
    /// record below it was handed over.
    std::atomic<RecordId> ceilingBound_{0};
    /// Sealed records that found the ring full. Drained ahead of the
    /// log buffer on the next publishSealed so the ring stays FIFO by
    /// rid. Producer-thread-only.
    std::deque<EventRecord> overflow_;
    /// Arcs that survived reduction but whose record was filtered out;
    /// re-attached to the next captured record (conservative ordering).
    std::vector<DepArc> pendingArcsCarry_;

    // Cached references into `stats` for the once-per-retired-event
    // sites (string-keyed map lookups are too slow there).
    Counter &filteredCtr_;
    Counter &recordsCtr_;
    Counter &recordsWithArcsCtr_;
};

} // namespace paralog

#endif // PARALOG_CAPTURE_CAPTURE_UNIT_HPP
