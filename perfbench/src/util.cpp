#include "util.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include <sys/resource.h>

namespace perfbench {

double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

namespace {

/** Zero-based nearest-rank index of the @p p percentile of @p n. */
std::size_t
rankIndex(std::size_t n, double p)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return rank == 0 ? 0 : std::min(rank, n) - 1;
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::size_t i = rankIndex(v.size(), p);
    std::nth_element(v.begin(), v.begin() + static_cast<long>(i), v.end());
    return v[i];
}

double
median(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    std::vector<double> s = v;
    std::sort(s.begin(), s.end());
    std::size_t n = s.size();
    return n % 2 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    return n == 0 ? 0 : n - rankIndex(n, p) - 1;
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(const std::string &s)
{
    for (unsigned char c : s) {
        h_ ^= c;
        h_ *= 0x100000001b3ULL;
    }
    add(s.size());
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
hostThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

WorkerPool::WorkerPool(unsigned threads) : errors_(std::max(threads, 1u))
{
    for (unsigned t = 1; t < threads; ++t)
        workers_.emplace_back(&WorkerPool::work, this, t);
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    start_.notify_all();
    for (std::thread &th : workers_)
        th.join();
}

void
WorkerPool::runShare(unsigned t)
{
    try {
        for (std::size_t i = t; i < n_; i += size())
            (*fn_)(i);
    } catch (...) {
        errors_[t] = std::current_exception();
    }
}

void
WorkerPool::work(unsigned t)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            start_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_)
                return;
            seen = generation_;
        }
        runShare(t);
        std::lock_guard<std::mutex> lock(mu_);
        if (--busy_ == 0)
            done_.notify_one();
    }
}

void
WorkerPool::run(std::size_t n, const std::function<void(std::size_t)> &fn)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        n_ = n;
        fn_ = &fn;
        busy_ = static_cast<unsigned>(workers_.size());
        ++generation_;
    }
    start_.notify_all();
    runShare(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return busy_ == 0; });
    for (std::exception_ptr &e : errors_) {
        if (e) {
            std::exception_ptr first = e;
            for (std::exception_ptr &x : errors_)
                x = nullptr;
            std::rethrow_exception(first);
        }
    }
}

void
OpenLoop::sent(std::uint64_t i, double sent_s)
{
    lateness_.push_back(std::max(0.0, sent_s - due(i)));
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
metricsJson(const std::map<std::string, double> &m)
{
    std::string out = "{";
    char buf[64];
    for (const auto &[name, value] : m) {
        if (out.size() > 1)
            out += ',';
        // %.17g keeps every digit of the measured value.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        out += '"' + jsonEscape(name) + "\":" + buf;
    }
    return out + "}";
}

} // namespace perfbench
