/**
 * @file
 * Measurement helpers shared by the benchmark's workloads: clocks,
 * percentiles with the ten-samples-beyond rule, the output digest,
 * peak RSS, and the open-loop schedule of the daemon generator.
 */

#ifndef PERFBENCH_UTIL_HPP
#define PERFBENCH_UTIL_HPP

#include <cstddef>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock (arbitrary epoch). */
double nowS();

/** Nearest-rank percentile of @p v (0 < p <= 100); 0 when empty. */
double percentile(std::vector<double> v, double p);

double median(const std::vector<double> &v);

/** Samples strictly above the nearest-rank @p p percentile of @p n:
 *  a tail percentile is reported with the count, and needs >= 10. */
std::size_t samplesBeyond(std::size_t n, double p);

/** FNV-1a over 64-bit words: the simulated-output digest. */
class Digest
{
  public:
    void add(std::uint64_t v);
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * Open-loop arrival schedule: request i is due at start + i / rate,
 * whether or not earlier requests have completed. Latency is measured
 * from the due time, so a stalled generator or server charges its
 * delay to every request queued behind it.
 */
class OpenLoop
{
  public:
    OpenLoop(double start_s, double rate_per_s)
        : start_(start_s), interval_(1.0 / rate_per_s)
    {
    }

    double due(std::uint64_t i) const
    {
        return start_ + static_cast<double>(i) * interval_;
    }

    /** Record that request @p i was actually sent at @p sent_s. */
    void sent(std::uint64_t i, double sent_s);

    /** How late the generator sent requests, in seconds. */
    const std::vector<double> &lateness() const { return lateness_; }

  private:
    double start_;
    double interval_;
    std::vector<double> lateness_;
};

/** Host threads a workload may keep busy: nproc, at most 4. */
unsigned hostThreads();

/**
 * A fixed set of host threads that run a workload's independent cells.
 * Item i of a batch always runs on thread i % size() (thread 0 is the
 * caller), in index order per thread. The threads live as long as the
 * pool, so each keeps its own allocator arena and sees the same
 * sequence of cells in every round: the memory the arenas retain, and
 * so the process's peak RSS, does not depend on which thread happened
 * to pick up which cell. Spreading cells over every host core also
 * samples every core's speed, which on a shared host varies from core
 * to core and from minute to minute.
 */
class WorkerPool
{
  public:
    explicit WorkerPool(unsigned threads);
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

    /** Call @p fn(i) for every i < @p n; returns when every call has
     *  returned, rethrowing the first exception one of them threw. */
    void run(std::size_t n, const std::function<void(std::size_t)> &fn);

  private:
    void work(unsigned t);
    void runShare(unsigned t);

    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable start_;
    std::condition_variable done_;
    std::uint64_t generation_ = 0;
    unsigned busy_ = 0;
    bool stop_ = false;
    std::size_t n_ = 0;
    const std::function<void(std::size_t)> *fn_ = nullptr;
    std::vector<std::exception_ptr> errors_;
};

/** Flat metric map -> one-line JSON object (numbers only). */
std::string metricsJson(const std::map<std::string, double> &m);

/** Minimal JSON string escaping. */
std::string jsonEscape(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_UTIL_HPP
