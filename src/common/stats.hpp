/**
 * @file
 * Lightweight named statistics: scalar counters and histograms, grouped
 * into a StatSet that can be dumped for benches and inspected by tests.
 */

#ifndef PARALOG_COMMON_STATS_HPP
#define PARALOG_COMMON_STATS_HPP

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace paralog {

/**
 * Order-invariant min / median / max summary of repeated samples (the
 * `--repeat` aggregation of the scenario-matrix runner). Samples are
 * sorted on demand, so the summary is identical no matter which order
 * concurrent repeats complete in. Median is the lower middle element —
 * exact and integer-valued for any repeat count.
 */
template <typename T>
class SampleSummaryT
{
  public:
    void
    add(T v)
    {
        samples_.push_back(v);
        sorted_ = false;
    }

    std::size_t count() const { return samples_.size(); }
    T min() const { return samples_.empty() ? T{} : sorted().front(); }
    T max() const { return samples_.empty() ? T{} : sorted().back(); }

    T
    median() const
    {
        if (samples_.empty())
            return T{};
        return sorted()[(samples_.size() - 1) / 2];
    }

    /** True iff every sample equals every other (deterministic repeats
     *  of the same configuration must satisfy this). */
    bool
    allEqual() const
    {
        return samples_.empty() || sorted().front() == sorted().back();
    }

  private:
    const std::vector<T> &
    sorted() const
    {
        if (!sorted_) {
            std::sort(samples_.begin(), samples_.end());
            sorted_ = true;
        }
        return samples_;
    }

    mutable std::vector<T> samples_;
    mutable bool sorted_ = true;
};

using SampleSummary = SampleSummaryT<std::uint64_t>;
using WallClockSummary = SampleSummaryT<double>;

/**
 * Monotonic scalar counter. Backed by a relaxed atomic so that
 * monitor-side counters can be *sampled* from another host thread
 * (the concurrent-mode progress watchdog) without a data race.
 * Each counter has one writer at a time: a single owning thread, or
 * writers serialized by the component's mutex. inc() is therefore a
 * relaxed load plus store, not a locked read-modify-write; it runs on
 * every retired instruction. A counter that two threads update
 * without a common lock must use incShared() instead.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &o)
        : value_(o.value_.load(std::memory_order_relaxed))
    {
    }
    Counter &
    operator=(const Counter &o)
    {
        value_.store(o.value_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        return *this;
    }

    void
    inc(std::uint64_t n = 1)
    {
        value_.store(value_.load(std::memory_order_relaxed) + n,
                     std::memory_order_relaxed);
    }
    /** inc() for a counter with several unsynchronized writers. */
    void
    incShared(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    void set(std::uint64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Power-of-two bucketed histogram: bucket k counts samples in
 * [2^k, 2^(k+1)) with bucket 0 holding samples of 0 and 1.
 */
class Histogram
{
  public:
    Histogram() : buckets_(64, 0) {}

    void sample(std::uint64_t v);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /** Smallest sample value v such that >= frac of samples are <= v
     *  (approximated at bucket granularity). */
    std::uint64_t percentileApprox(double frac) const;

    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~0ULL;
    std::uint64_t max_ = 0;
};

/**
 * A named group of counters and histograms. Lookup lazily creates the
 * entry so instrumentation sites stay one-liners.
 */
class StatSet
{
  public:
    explicit StatSet(std::string name = "") : name_(std::move(name)) {}

    Counter &
    counter(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(initMutex_);
        return counters_[name];
    }
    Histogram &
    histogram(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(initMutex_);
        return histograms_[name];
    }

    /**
     * Fast-path overloads for string literals (every instrumentation
     * site): the literal's address is memoized, so the steady-state
     * cost is a short pointer scan instead of a std::string
     * construction plus a map walk — the difference matters at
     * once-per-simulated-event call sites.
     *
     * The memo is safe to use from several host threads (a shared
     * component's counters may be first-touched by any worker, and the
     * concurrent-mode watchdog samples them from the supervisor): slots
     * are fixed storage, each published exactly once with a release
     * store of its name after the entry is complete, and scanned with
     * acquire loads — first-use takes initMutex_, the steady state
     * stays lock-free. Counters and Histograms keep their one-writer
     * rules (see the class comments).
     */
    Counter &
    counter(const char *name)
    {
        for (const MemoSlot<Counter> &e : counterMemo_) {
            const char *n = e.name.load(std::memory_order_acquire);
            if (n == nullptr)
                break;
            if (n == name)
                return *e.value;
        }
        return counterSlow(name);
    }

    Histogram &
    histogram(const char *name)
    {
        for (const MemoSlot<Histogram> &e : histogramMemo_) {
            const char *n = e.name.load(std::memory_order_acquire);
            if (n == nullptr)
                break;
            if (n == name)
                return *e.value;
        }
        return histogramSlow(name);
    }

    std::uint64_t get(const std::string &name) const;
    bool has(const std::string &name) const;

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    void reset();
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

  private:
    /// One memo entry: the literal's address doubles as the published
    /// flag (null = end of the populated prefix). Map node references
    /// are stable, so the cached pointers never dangle.
    template <typename T>
    struct MemoSlot
    {
        std::atomic<const char *> name{nullptr};
        T *value = nullptr;
    };

    static constexpr std::size_t kMemoSlots = 64;

    Counter &counterSlow(const char *name);
    Histogram &histogramSlow(const char *name);

    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    std::array<MemoSlot<Counter>, kMemoSlots> counterMemo_;
    std::array<MemoSlot<Histogram>, kMemoSlots> histogramMemo_;
    /// Guards first-use insertion into the maps and memo publication;
    /// never taken on a memo hit.
    std::mutex initMutex_;
};

} // namespace paralog

#endif // PARALOG_COMMON_STATS_HPP
