/**
 * @file
 * daemon_corpus: an in-process paralogd with 2 workers, fed by one
 * generator thread (this one) with a seeded mix of the 16 committed
 * corpus recordings. Thread budget: event loop + 2 workers + generator.
 *
 * Each round has two phases:
 *  - capacity: for kCapacityS the generator keeps kSaturationInFlight
 *    uploads in flight, below the daemon's shed limit, and the
 *    completion rate is the round's throughput.
 *  - reference: an open-loop burst of kRefJobs jobs at kRefLoad times
 *    the run's capacity so far (the median over its rounds), each
 *    timed from its due time. Uploads are non-blocking (one poll loop
 *    drives every connection), so a slow verdict never delays the next
 *    send and the queue can form. These verdict latencies are the
 *    round's samples; a run pools them over its rounds.
 * Every round submits new jobs of the seeded sequence.
 */

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
#include "tracer.hpp"
#include "util.hpp"

namespace perfbench {

using namespace paralog;

namespace {

/// Offered load of the reference phase, as a share of the capacity the
/// run measured. At this load the job queue forms behind the all-four
/// jobs; tying the rate to the measured capacity keeps a host that runs
/// slower for a while from pushing the daemon towards saturation,
/// where latency would grow far faster than the host slowed.
constexpr double kRefLoad = 0.65;
constexpr std::size_t kDigestJobs = 48;    ///< verdicts in the digest
constexpr double kCapacityS = 2.0;         ///< capacity window per round
constexpr std::size_t kSaturationInFlight = 4;
/// Generator-side cap: the daemon's default maxQueuedJobs. It sheds an
/// upload only when that many jobs already wait for a worker, so with
/// no more uploads in flight it never sheds, whatever its workers are
/// doing. A 96-job burst that met a slow stretch of the host reached
/// the shed limit with 32 in flight (3 shed jobs in 10 runs); capped,
/// overload shows as generator lateness and as latency from the due
/// time instead of as shed jobs.
constexpr std::size_t kMaxInFlight = daemon::DaemonConfig{}.maxQueuedJobs;
/// Job ids of capacity phases start here (reference ids stay below).
constexpr std::uint64_t kCapacityJobBase = 1ULL << 40;

const char *const kCorpus[] = {
    "addrcheck_sc_v1",  "addrcheck_sc_v2",  "addrcheck_tso_v1",
    "addrcheck_tso_v2", "lockset_sc_v1",    "lockset_sc_v2",
    "lockset_tso_v1",   "lockset_tso_v2",   "memcheck_sc_v1",
    "memcheck_sc_v2",   "memcheck_tso_v1",  "memcheck_tso_v2",
    "taintcheck_sc_v1", "taintcheck_sc_v2", "taintcheck_tso_v1",
    "taintcheck_tso_v2",
};

std::uint64_t
splitmix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Jobs come in blocks of kBlockJobs: every file kAsksPerFile times, one
/// of those asking for all four lifeguards -- the share of the CI
/// service job's chaos mix (five healthy uploads for the recorded
/// lifeguard, one with --lifeguard=all). The seed orders each block,
/// so every seed offers the same mix and only the order differs.
constexpr std::size_t kAsksPerFile = 6;
constexpr std::size_t kBlockJobs = std::size(kCorpus) * kAsksPerFile;
constexpr std::size_t kRefJobs = kBlockJobs; ///< per round: one block

/** Job i of the seeded sequence: which file, and whether to ask for
 *  all four lifeguards or the recorded one only. */
struct JobSpec
{
    std::size_t file;
    bool allFour;
};

JobSpec
jobAt(std::uint64_t seed, std::uint64_t i)
{
    const std::uint64_t block = i / kBlockJobs;
    std::array<std::uint8_t, kBlockJobs> slots;
    for (std::size_t k = 0; k < kBlockJobs; ++k)
        slots[k] = static_cast<std::uint8_t>(k);
    std::uint64_t h = splitmix(seed * 0x100000001b3ULL + block);
    for (std::size_t k = kBlockJobs - 1; k > 0; --k) { // Fisher-Yates
        h = splitmix(h);
        std::swap(slots[k], slots[h % (k + 1)]);
    }
    const std::size_t slot = slots[i % kBlockJobs];
    return JobSpec{slot % std::size(kCorpus), slot < std::size(kCorpus)};
}

/** Value of "key":<digits> occurrences, summed. */
std::uint64_t
sumField(const std::string &json, const std::string &key)
{
    std::uint64_t sum = 0;
    const std::string pat = "\"" + key + "\":";
    for (std::size_t at = json.find(pat); at != std::string::npos;
         at = json.find(pat, at + 1))
        sum += std::strtoull(json.c_str() + at + pat.size(), nullptr, 10);
    return sum;
}

/** The verdict with host-dependent fields removed: the session id and
 *  every run's wallMs. */
std::string
normalizedRuns(const std::string &json)
{
    std::size_t at = json.find("\"runs\":");
    std::string runs = at == std::string::npos ? json : json.substr(at);
    const std::string pat = ",\"wallMs\":";
    for (std::size_t p = runs.find(pat); p != std::string::npos;
         p = runs.find(pat, p)) {
        std::size_t e = p + pat.size();
        while (e < runs.size() && std::isdigit(static_cast<unsigned char>(runs[e])))
            ++e;
        runs.erase(p, e - p);
    }
    return runs;
}

struct Conn
{
    int fd = -1;
    std::uint64_t job = 0;
    std::string head; ///< request magic, flags, lifeguard list
    const std::vector<std::uint8_t> *body = nullptr;
    std::size_t sent = 0;
    std::string resp;
    double due = 0;
    double start = 0;
    double uploaded = 0;
    std::uint32_t spanId = 0;
};

struct Verdict
{
    std::uint64_t job = 0;
    std::string status;
    std::string json;
    double due = 0;
    double start = 0;
    double uploaded = 0;
    double done = 0;
};

class DaemonCorpus : public BenchWorkload
{
  public:
    explicit DaemonCorpus(const Options &opt) : opt_(opt) {}

    ~DaemonCorpus() override { stopDaemon(); }

    void
    setup() override
    {
        stopDaemon();
        capacity_.clear();
        loadCorpus();
        daemon::DaemonConfig cfg;
        cfg.socketPath = opt_.runDir + "/daemon-" +
                         std::to_string(::getpid()) + ".sock";
        cfg.workers = 2;
        cfg.quiet = true;
        daemon_ = std::make_unique<daemon::Daemon>(cfg);
        if (!daemon_->start())
            throw std::runtime_error("daemon start: " + daemon_->error());
        socket_ = cfg.socketPath;
        loop_ = std::thread([this] { daemon_->run(); });
        // Warm-up: every corpus file twice, kSaturationInFlight at a
        // time, so set-up time is bound by job work rather than by the
        // hand-offs of one job at a time.
        std::vector<Verdict> v;
        for (std::size_t i = 0; i < 2 * files_.size(); ++i) {
            while (active_.size() >= kSaturationInFlight)
                pump(v, 1000);
            startJob(i % files_.size(), false, ~0ULL, nowS());
        }
        while (!active_.empty())
            pump(v, 1000);
        for (const Verdict &w : v)
            if (w.status != "ok")
                throw std::runtime_error("warm-up job failed: " + w.status);
    }

    Round
    round(std::size_t index) override
    {
        Round r;
        r.inputSet = index; // every round submits different jobs
        MetricRegistry &m = daemon_->metrics();
        const double shed0 =
            static_cast<double>(m.counterValue("daemon.jobs.shed"));
        const double failed0 =
            static_cast<double>(m.counterValue("daemon.jobs.failed"));
        const auto [jobSum0, jobCount0] = jobMeters();
        const std::size_t refJobs = opt_.smoke ? 12 : kRefJobs;
        const std::uint64_t first = index * refJobs;

        // ---- capacity phase: a fixed number of uploads in flight ---
        std::vector<Verdict> sat;
        double capS = 0;
        double capEnd = 0;
        {
            SpanScope phase("phase", "capacity");
            const double window = opt_.smoke ? 0.5 : kCapacityS;
            const double c0 = nowS();
            while (nowS() - c0 < window) {
                while (active_.size() < kSaturationInFlight) {
                    const JobSpec js = jobAt(opt_.seed, capNext_);
                    startJob(js.file, js.allFour, capNext_++, nowS());
                }
                pump(sat, 50);
            }
            capEnd = nowS();
            capS = capEnd - c0;
            while (!active_.empty())
                pump(sat, 50);
        }
        for (const Verdict &v : sat)
            if (v.status == "ok" && v.done <= capEnd)
                r.units += 1;
        r.hostS = capS;
        capacity_.push_back(r.units / capS);
        const double rate = kRefLoad * median(capacity_);
        r.layers["gen.offered_per_s"] += rate;

        // ---- reference phase: open loop ---------------------------
        std::vector<Verdict> ref;
        depthMax_ = 0;
        {
            SpanScope phase("phase", "reference");
            OpenLoop loop(nowS(), rate);
            std::uint64_t next = 0;
            while (next < refJobs || !active_.empty()) {
                const double now = nowS();
                if (next < refJobs && now >= loop.due(next) &&
                    active_.size() < kMaxInFlight) {
                    const JobSpec js = jobAt(opt_.seed, first + next);
                    loop.sent(next, now);
                    startJob(js.file, js.allFour, first + next,
                             loop.due(next));
                    ++next;
                    continue;
                }
                int wait_ms = 50;
                if (next < refJobs)
                    wait_ms = std::max(
                        0, static_cast<int>((loop.due(next) - now) * 1e3));
                pump(ref, wait_ms);
            }
            r.layers["gen.lateness_ms"] +=
                percentile(loop.lateness(), 90) * 1e3;
        }
        // The queue the reference latencies saw.
        r.layers["daemon.queue.depth_max"] += depthMax_;

        Digest d;
        std::vector<double> ingest, queue;
        for (const std::vector<Verdict> *set : {&ref, &sat}) {
            for (const Verdict &v : *set) {
                ++r.attempted;
                if (v.status != "ok") {
                    ++r.failed;
                    if (v.status != "shed" && v.status != "rejected")
                        r.errors.push_back("job " + std::to_string(v.job) +
                                           ": " + v.json.substr(0, 200));
                    continue;
                }
                if (v.json.find("\"selfCheck\":true,\"failed\":false") ==
                        std::string::npos ||
                    v.json.find("\"failed\":true") != std::string::npos)
                    r.errors.push_back("job " + std::to_string(v.job) +
                                       ": recorded-lifeguard self-check "
                                       "missing or failed");
                ingest.push_back((v.uploaded - v.start) * 1e3);
                queue.push_back(std::max(
                    0.0, (v.done - v.uploaded) * 1e3 -
                             static_cast<double>(sumField(v.json, "wallMs"))));
            }
        }
        // Verdicts arrive out of order; digest them in job order.
        std::vector<const Verdict *> byJob(kDigestJobs, nullptr);
        for (const Verdict &v : ref)
            if (v.job - first < byJob.size())
                byJob[v.job - first] = &v;
        for (const Verdict *v : byJob) {
            if (!v)
                continue; // only in smoke runs (fewer reference jobs)
            const JobSpec js = jobAt(opt_.seed, v->job);
            d.add(kCorpus[js.file]);
            d.add(js.allFour ? 4 : 1);
            d.add(v->status == "ok" ? normalizedRuns(v->json) : v->status);
        }
        r.digest = d.hex();

        for (const Verdict &v : ref)
            if (v.status == "ok")
                r.latMs.push_back((v.done - v.due) * 1e3);

        const auto [jobSum1, jobCount1] = jobMeters();
        r.layers["daemon.ingest_ms"] += median(ingest);
        r.layers["daemon.queue_wait_ms"] += median(queue);
        r.layers["daemon.job_ms"] +=
            jobCount1 > jobCount0 ? (jobSum1 - jobSum0) / (jobCount1 - jobCount0)
                                  : 0.0;
        r.layers["daemon.shed"] +=
            static_cast<double>(m.counterValue("daemon.jobs.shed")) - shed0;
        r.layers["daemon.failed"] +=
            static_cast<double>(m.counterValue("daemon.jobs.failed")) -
            failed0;
        return r;
    }

  private:
    void
    loadCorpus()
    {
        files_.clear();
        for (const char *name : kCorpus) {
            const std::string path =
                opt_.repoRoot + "/tests/corpus/" + name + ".trace";
            std::ifstream in(path, std::ios::binary);
            if (!in)
                throw std::runtime_error("cannot read " + path);
            files_.emplace_back(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
        }
    }

    void
    stopDaemon()
    {
        for (Conn &c : active_)
            ::close(c.fd);
        active_.clear();
        if (daemon_) {
            daemon_->requestStop();
            if (loop_.joinable())
                loop_.join();
            daemon_.reset();
            ::unlink(socket_.c_str());
        }
    }

    /** Sum and count of every per-lifeguard job meter (ms). */
    std::pair<double, double>
    jobMeters()
    {
        double sum = 0, count = 0;
        for (const char *lg : {"TaintCheck", "AddrCheck", "MemCheck",
                               "LockSet"}) {
            MetricMeter::Snapshot s = daemon_->metrics().meterSnapshot(
                std::string("daemon.lg.") + lg + ".ms");
            sum += static_cast<double>(s.sum);
            count += static_cast<double>(s.count);
        }
        return {sum, count};
    }

    void
    startJob(std::size_t file, bool all_four, std::uint64_t job, double due)
    {
        Conn c;
        c.job = job;
        c.due = due;
        c.start = nowS();
        c.body = &files_[file];
        c.head.assign(daemon::kSubmitMagic.begin(), daemon::kSubmitMagic.end());
        const std::uint32_t n = all_four ? 4 : 0;
        for (std::uint32_t v : {0u, n})
            for (int b = 0; b < 4; ++b)
                c.head.push_back(static_cast<char>((v >> (8 * b)) & 0xff));
        for (std::uint32_t k = 0; k < n; ++k)
            c.head.push_back(static_cast<char>(k)); // every LifeguardKind
        if (tracer().enabled())
            c.spanId = tracer().open("submit", kCorpus[file], false);

        c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
        if (c.fd < 0 ||
            ::connect(c.fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0) {
            throw std::runtime_error(std::string("connect: ") +
                                     std::strerror(errno));
        }
        // Connected (Unix-domain connect does not wait on the server);
        // everything after is non-blocking.
        ::fcntl(c.fd, F_SETFL, O_NONBLOCK);
        active_.push_back(std::move(c));
    }

    /** Drive every connection once (waiting up to @p wait_ms); finished
     *  ones move to @p done. */
    void
    pump(std::vector<Verdict> &done, int wait_ms)
    {
        depthMax_ = std::max(
            depthMax_, static_cast<double>(daemon_->metrics().gaugeValue(
                           "daemon.queue.depth")));
        std::vector<pollfd> fds;
        for (const Conn &c : active_) {
            const bool sending = c.sent < c.head.size() + c.body->size();
            fds.push_back(pollfd{c.fd, static_cast<short>(sending ? POLLOUT
                                                                  : POLLIN),
                                 0});
        }
        if (::poll(fds.data(), fds.size(), wait_ms) <= 0)
            return;
        for (std::size_t i = fds.size(); i-- > 0;) {
            if (!fds[i].revents)
                continue;
            Conn &c = active_[i];
            if (advance(c)) {
                Verdict v;
                v.job = c.job;
                v.due = c.due;
                v.start = c.start;
                v.uploaded = c.uploaded;
                v.done = nowS();
                parseResponse(c.resp, v);
                if (c.spanId)
                    tracer().close(c.spanId);
                ::close(c.fd);
                done.push_back(std::move(v));
                active_.erase(active_.begin() + static_cast<long>(i));
            }
        }
    }

    /** Send or receive what the socket allows; true once closed. */
    static bool
    advance(Conn &c)
    {
        const std::size_t total = c.head.size() + c.body->size();
        while (c.sent < total) {
            const std::uint8_t *p;
            std::size_t n;
            if (c.sent < c.head.size()) {
                p = reinterpret_cast<const std::uint8_t *>(c.head.data()) +
                    c.sent;
                n = c.head.size() - c.sent;
            } else {
                p = c.body->data() + (c.sent - c.head.size());
                n = total - c.sent;
            }
            ssize_t w = ::send(c.fd, p, n, MSG_NOSIGNAL);
            if (w < 0) {
                if (errno == EAGAIN || errno == EINTR)
                    return false;
                return true; // daemon closed early: response or nothing
            }
            c.sent += static_cast<std::size_t>(w);
            if (c.sent == total) {
                c.uploaded = nowS();
                ::shutdown(c.fd, SHUT_WR);
            }
        }
        char buf[16384];
        for (;;) {
            ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
            if (n > 0) {
                c.resp.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EINTR))
                return false;
            return true; // EOF or error
        }
    }

    static void
    parseResponse(const std::string &raw, Verdict &v)
    {
        std::size_t off = 0;
        const std::string hb = daemon::kHeartbeatLine;
        const std::string marker = daemon::kResponseLine;
        while (raw.compare(off, hb.size(), hb) == 0)
            off += hb.size();
        if (raw.compare(off, marker.size(), marker) != 0) {
            v.status = "no-response";
            v.json = raw.substr(0, 200);
            return;
        }
        v.json = raw.substr(off + marker.size());
        const std::string key = "\"status\":\"";
        std::size_t at = v.json.find(key);
        if (at == std::string::npos) {
            v.status = "malformed";
            return;
        }
        at += key.size();
        v.status = v.json.substr(at, v.json.find('"', at) - at);
    }

    Options opt_;
    std::vector<std::vector<std::uint8_t>> files_;
    std::unique_ptr<daemon::Daemon> daemon_;
    std::thread loop_;
    std::string socket_;
    std::vector<Conn> active_;
    double depthMax_ = 0;
    std::vector<double> capacity_; ///< jobs/s of each capacity phase
    std::uint64_t capNext_ = kCapacityJobBase;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeDaemonCorpus(const Options &opt)
{
    return std::make_unique<DaemonCorpus>(opt);
}

} // namespace perfbench
