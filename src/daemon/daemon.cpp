#include "daemon/daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "core/experiment.hpp"
#include "daemon/protocol.hpp"

namespace paralog::daemon {

namespace {

using Clock = std::chrono::steady_clock;

int
msBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(b - a)
            .count());
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string
hexU64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Byte offset of the first chunk-payload byte in a trace stream —
/// where the daemon.corrupt-crc fault flips a bit.
constexpr std::uint64_t kCorruptOffset = trace::kHeaderBytes + 16;

/// Per-session cap on buffered outgoing bytes. Responses are small;
/// only a client that stopped reading its heartbeats can hit this.
constexpr std::size_t kMaxOutBytes = 1u << 20;

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

// ------------------------------------------------------------ session

struct Daemon::Session
{
    enum class St
    {
        kMagic,        ///< reading the 8-byte request magic
        kSubmitHeader, ///< reading flags + lifeguard count
        kLifeguards,   ///< reading the lifeguard kind bytes
        kIngest,       ///< streaming the trace through StreamIngest
        kQueued,       ///< upload accepted, job waiting for a worker
        kRunning,      ///< a worker is re-monitoring the upload
        kRespond,      ///< response buffered; flush then close
        kLinger,       ///< response sent, write side shut: discard
                       ///< the client's unread bytes until EOF
    };

    std::uint64_t id = 0;
    int fd = -1;
    St state = St::kMagic;
    bool sawEof = false;
    bool closed = false;
    bool closeAfterOut = false;
    bool jobSubmitted = false; ///< the worker owns the spool file now

    std::vector<std::uint8_t> req; ///< magic/header/kind accumulation
    std::uint32_t nLifeguards = 0;
    std::vector<LifeguardKind> lifeguards;

    trace::StreamIngest ingest;
    std::FILE *spool = nullptr;
    std::string spoolPath;
    std::uint64_t ingestOffset = 0;
    bool corruptDone = false;

    std::string out;
    std::size_t outOff = 0;

    Clock::time_point lastActivity;
    Clock::time_point lastHeartbeat;
};

// ------------------------------------------------------- construction

Daemon::Daemon(const DaemonConfig &cfg) : cfg_(cfg)
{
    if (cfg_.spoolDir.empty())
        cfg_.spoolDir = cfg_.socketPath + ".spool";
    if (cfg_.workers == 0)
        cfg_.workers = 1;
}

Daemon::~Daemon()
{
    if (!workers_.empty()) {
        {
            std::lock_guard<std::mutex> lock(queueMutex_);
            workersQuit_ = true;
        }
        queueCv_.notify_all();
        for (std::thread &t : workers_)
            t.join();
        workers_.clear();
        setPanicThrows(panicThrowsPrev_);
    }
    for (auto &s : sessions_)
        if (s->fd >= 0)
            ::close(s->fd);
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeRead_ >= 0)
        ::close(wakeRead_);
    if (wakeWrite_ >= 0)
        ::close(wakeWrite_);
    if (!cfg_.socketPath.empty())
        ::unlink(cfg_.socketPath.c_str());
}

bool
Daemon::start()
{
    if (cfg_.socketPath.empty()) {
        error_ = "no socket path configured";
        return false;
    }
    if (cfg_.socketPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
        error_ = "socket path too long for AF_UNIX";
        return false;
    }
    ::mkdir(cfg_.spoolDir.c_str(), 0700); // EEXIST is fine

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
        error_ = "pipe() failed";
        return false;
    }
    wakeRead_ = pipefd[0];
    wakeWrite_ = pipefd[1];
    setNonBlocking(wakeRead_);
    setNonBlocking(wakeWrite_);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        error_ = "socket() failed";
        return false;
    }
    ::unlink(cfg_.socketPath.c_str());
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        error_ = "bind('" + cfg_.socketPath + "') failed: " +
                 std::strerror(errno);
        return false;
    }
    if (::listen(listenFd_, 64) != 0) {
        error_ = "listen() failed";
        return false;
    }
    setNonBlocking(listenFd_);

    // Panic-throw mode stays on for the daemon's lifetime so job
    // panics become contained exceptions on worker threads; per-call
    // scopes (runMatrix) nest harmlessly on top.
    panicThrowsPrev_ = setPanicThrows(true);

    startedAt_ = Clock::now();
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });

    if (!cfg_.quiet)
        inform("paralogd: listening on %s (%u workers)",
                cfg_.socketPath.c_str(), cfg_.workers);
    return true;
}

void
Daemon::requestStop()
{
    stopping_.store(true, std::memory_order_release);
    if (wakeWrite_ >= 0) {
        char b = 's';
        [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &b, 1);
    }
}

// ------------------------------------------------------------ workers

void
Daemon::workerLoop()
{
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return workersQuit_ || !jobQueue_.empty();
            });
            if (jobQueue_.empty()) {
                if (workersQuit_)
                    return;
                continue;
            }
            job = std::move(jobQueue_.front());
            jobQueue_.pop_front();
        }

        std::string json;
        try {
            json = runJob(job);
        } catch (const std::exception &e) {
            // Containment of last resort: runMatrix already boxes
            // per-cell panics, but a panic before the matrix starts
            // (job.fail, spool I/O) must also cost only this job.
            metrics_.counter("daemon.jobs.failed").inc(1);
            json = "{\"status\":\"failed\",\"session\":" +
                   std::to_string(job.sessionId) + ",\"reason\":\"" +
                   jsonEscape(e.what()) + "\"}";
        }
        std::remove(job.spoolPath.c_str());

        {
            std::lock_guard<std::mutex> lock(doneMutex_);
            doneQueue_.push_back(
                Done{job.sessionId, std::move(json), false});
        }
        char b = 'd';
        [[maybe_unused]] ssize_t n = ::write(wakeWrite_, &b, 1);
    }
}

std::string
Daemon::runJob(const Job &job)
{
    // Fault job.fail=N: the Nth job (across all workers) panics before
    // it runs — exercises the workerLoop containment of last resort.
    std::uint64_t seq = jobSeq_.fetch_add(1, std::memory_order_relaxed);
    if (faultHits("job.fail", seq))
        panic("injected failure: job.fail hit job %llu",
              static_cast<unsigned long long>(seq));

    if (std::optional<std::uint64_t> ms =
            faultValue("daemon.stall-worker"))
        std::this_thread::sleep_for(std::chrono::milliseconds(*ms));

    std::vector<LifeguardKind> kinds = job.lifeguards;
    if (kinds.empty())
        kinds.push_back(job.recorded);

    std::vector<RunSpec> specs;
    specs.reserve(kinds.size());
    for (LifeguardKind kind : kinds) {
        RunSpec spec{};
        spec.lifeguard = kind;
        spec.mode = MonitorMode::kParallel;
        spec.cores = job.appThreads;
        spec.opt.lgThreads = cfg_.lgThreads;
        spec.replayPath = job.spoolPath;
        specs.push_back(spec);
    }

    // Same contained cell runner as the CLI matrix: a panic inside one
    // replay marks that run failed and leaves the worker healthy.
    std::vector<CellResult> cells = runMatrix(specs, 1);

    bool any_failed = false;
    std::uint64_t records = 0;
    std::ostringstream runs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &cell = cells[i];
        const char *lg_name = toString(kinds[i]);
        metrics_.meter(std::string("daemon.lg.") + lg_name + ".ms")
            .sample(static_cast<std::uint64_t>(cell.wallMs) + 1);
        if (i)
            runs << ',';
        runs << "{\"lifeguard\":\"" << lg_name << "\",\"selfCheck\":"
             << (kinds[i] == job.recorded ? "true" : "false");
        if (cell.failed) {
            any_failed = true;
            runs << ",\"failed\":true,\"error\":\""
                 << jsonEscape(cell.error) << "\"}";
            continue;
        }
        std::uint64_t run_records = 0;
        for (const LifeguardThreadStats &l : cell.result.lifeguard)
            run_records += l.recordsProcessed;
        records += run_records;
        runs << ",\"failed\":false,\"shadowFingerprint\":\""
             << hexU64(cell.result.shadowFingerprint)
             << "\",\"violationFingerprint\":\""
             << hexU64(cell.result.violationFingerprint)
             << "\",\"violations\":" << cell.result.violationCount
             << ",\"totalCycles\":" << cell.result.totalCycles
             << ",\"records\":" << run_records << ",\"wallMs\":"
             << static_cast<std::uint64_t>(cell.wallMs) << "}";
    }

    metrics_.counter("daemon.replay.records").inc(records);
    metrics_.counter(any_failed ? "daemon.jobs.failed"
                                : "daemon.jobs.completed")
        .inc(1);

    std::ostringstream body;
    body << "{\"status\":\"" << (any_failed ? "failed" : "ok")
         << "\",\"session\":" << job.sessionId
         << ",\"trace\":{\"appThreads\":" << job.appThreads
         << ",\"records\":" << job.totalRecords
         << ",\"recordedLifeguard\":\"" << toString(job.recorded)
         << "\"},\"runs\":[" << runs.str() << "]}";
    return body.str();
}

// --------------------------------------------------------- event loop

int
Daemon::run()
{
    eventLoop();

    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        workersQuit_ = true;
    }
    queueCv_.notify_all();
    for (std::thread &t : workers_)
        t.join();
    workers_.clear();
    setPanicThrows(panicThrowsPrev_);

    drainDoneQueue(); // results for sessions that vanished mid-drain

    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(cfg_.socketPath.c_str());

    if (!cfg_.quiet) {
        std::ostringstream text;
        metrics_.renderText(text);
        std::fprintf(stderr, "paralogd: final metrics\n%s",
                     text.str().c_str());
    }
    return 0;
}

void
Daemon::eventLoop()
{
    bool drain_started = false;
    const int tick_ms = std::max(
        10, std::min(250, std::min(cfg_.heartbeatMs, cfg_.idleTimeoutMs) /
                              4));

    while (true) {
        if (stopping_.load(std::memory_order_acquire) &&
            !drain_started) {
            drain_started = true;
            if (listenFd_ >= 0) {
                ::close(listenFd_);
                listenFd_ = -1;
            }
            shedQueuedJobs("draining");
            // In-progress uploads can never become jobs now.
            for (auto &sp : sessions_) {
                Session &s = *sp;
                if (s.state != Session::St::kQueued &&
                    s.state != Session::St::kRunning &&
                    s.state != Session::St::kRespond &&
                    s.state != Session::St::kLinger) {
                    if (s.state == Session::St::kIngest)
                        metrics_.counter("daemon.jobs.shed").inc(1);
                    respondError(s, "shed", "draining");
                }
            }
            if (!cfg_.quiet)
                inform("paralogd: draining (%zu sessions open)",
                        sessions_.size());
        }

        if (drain_started) {
            bool jobs_outstanding;
            {
                std::lock_guard<std::mutex> lock(queueMutex_);
                jobs_outstanding = !jobQueue_.empty();
            }
            bool results_pending;
            {
                std::lock_guard<std::mutex> lock(doneMutex_);
                results_pending = !doneQueue_.empty();
            }
            bool sessions_busy = false;
            for (auto &sp : sessions_)
                if (sp->state == Session::St::kQueued ||
                    sp->state == Session::St::kRunning ||
                    !sp->out.empty())
                    sessions_busy = true;
            if (!jobs_outstanding && !results_pending && !sessions_busy)
                break;
        }

        std::vector<pollfd> fds;
        fds.push_back(pollfd{wakeRead_, POLLIN, 0});
        if (listenFd_ >= 0)
            fds.push_back(pollfd{listenFd_, POLLIN, 0});
        std::vector<Session *> polled;
        for (auto &sp : sessions_) {
            Session &s = *sp;
            short events = 0;
            if (!s.sawEof && s.state != Session::St::kRespond)
                events |= POLLIN;
            if (s.outOff < s.out.size())
                events |= POLLOUT;
            if (events == 0)
                continue;
            fds.push_back(pollfd{s.fd, events, 0});
            polled.push_back(&s);
        }

        int rc = ::poll(fds.data(), fds.size(), tick_ms);
        if (rc < 0 && errno != EINTR)
            break;

        // Drain wakeups (worker completions, requestStop).
        if (fds[0].revents & POLLIN) {
            char buf[64];
            while (::read(wakeRead_, buf, sizeof(buf)) > 0) {
            }
        }
        drainDoneQueue();

        std::size_t base = 1;
        if (listenFd_ >= 0) {
            if (fds[1].revents & POLLIN)
                acceptClients(listenFd_);
            base = 2;
        }
        for (std::size_t i = 0; i < polled.size(); ++i) {
            Session &s = *polled[i];
            short rev = fds[base + i].revents;
            if (s.closed)
                continue;
            if (rev & (POLLERR | POLLNVAL)) {
                closeSession(s);
                continue;
            }
            if (rev & POLLOUT)
                writeSession(s);
            if (!s.closed && (rev & (POLLIN | POLLHUP)))
                readSession(s);
        }

        checkTimeouts();

        // Heartbeats towards sessions waiting on a worker.
        Clock::time_point now = Clock::now();
        for (auto &sp : sessions_) {
            Session &s = *sp;
            if (s.closed)
                continue;
            if ((s.state == Session::St::kQueued ||
                 s.state == Session::St::kRunning) &&
                msBetween(s.lastHeartbeat, now) >= cfg_.heartbeatMs) {
                s.lastHeartbeat = now;
                if (s.out.size() < kMaxOutBytes)
                    s.out += kHeartbeatLine;
            }
        }

        sessions_.erase(
            std::remove_if(sessions_.begin(), sessions_.end(),
                           [](const std::unique_ptr<Session> &sp) {
                               return sp->closed;
                           }),
            sessions_.end());
        metrics_.gauge("daemon.sessions.open")
            .set(static_cast<std::int64_t>(sessions_.size()));
    }
}

void
Daemon::acceptClients(int listen_fd)
{
    while (true) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0)
            return; // EAGAIN or transient error: back to poll
        std::uint64_t conn_index = acceptedConns_++;
        metrics_.counter("daemon.conns.accepted").inc(1);

        // Fault daemon.drop-conn=N: the Nth accepted connection is
        // dropped unanswered — clients must survive vanishing peers.
        if (faultHits("daemon.drop-conn", conn_index)) {
            metrics_.counter("daemon.conns.dropped").inc(1);
            ::close(fd);
            continue;
        }

        setNonBlocking(fd);
        auto s = std::make_unique<Session>();
        s->id = nextSessionId_++;
        s->fd = fd;
        s->lastActivity = s->lastHeartbeat = Clock::now();

        // Lingering sessions are answered: they hold no slot.
        std::size_t open = 0;
        for (const auto &sp : sessions_)
            open += sp->state != Session::St::kLinger;
        if (open >= cfg_.maxSessions) {
            metrics_.counter("daemon.sessions.rejected").inc(1);
            respondError(*s, "rejected", "too-many-sessions");
        }
        sessions_.push_back(std::move(s));
    }
}

void
Daemon::readSession(Session &s)
{
    while (!s.closed) {
        std::uint8_t buf[64 * 1024];
        ssize_t n = ::recv(s.fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return;
            closeSession(s);
            return;
        }
        if (n == 0) {
            s.sawEof = true;
            if (s.state == Session::St::kLinger) {
                closeSession(s);
            } else if (s.state == Session::St::kIngest) {
                s.ingest.finish(); // marks kTruncated
                metrics_.counter("daemon.ingest.failed").inc(1);
                metrics_
                    .counter(std::string("daemon.ingest.failed.") +
                             trace::ingestErrorName(
                                 s.ingest.errorCode()))
                    .inc(1);
                metrics_.counter("daemon.jobs.failed").inc(1);
                respondError(s, "failed",
                             std::string(trace::ingestErrorName(
                                 s.ingest.errorCode())) +
                                 ": " + s.ingest.error());
            } else if (s.state == Session::St::kMagic ||
                       s.state == Session::St::kSubmitHeader ||
                       s.state == Session::St::kLifeguards) {
                metrics_.counter("daemon.conns.early-close").inc(1);
                closeSession(s);
            }
            // Queued/Running/Respond: half-close is the normal
            // "done sending, waiting for my answer" signal.
            return;
        }
        if (s.state == Session::St::kLinger)
            continue; // discard; the linger is timed from its start
        s.lastActivity = Clock::now();
        if (!handleRequestBytes(s, buf, static_cast<std::size_t>(n)))
            return;
    }
}

bool
Daemon::handleRequestBytes(Session &s, const std::uint8_t *p,
                           std::size_t n)
{
    while (n > 0 && !s.closed) {
        switch (s.state) {
        case Session::St::kMagic:
        case Session::St::kSubmitHeader: {
            std::size_t want = 8 - s.req.size();
            std::size_t take = std::min(n, want);
            s.req.insert(s.req.end(), p, p + take);
            p += take;
            n -= take;
            if (s.req.size() < 8)
                return true;
            if (s.state == Session::St::kMagic) {
                if (std::memcmp(s.req.data(), kStatsMagic.data(), 8) ==
                    0) {
                    metrics_.gauge("daemon.uptime-ms")
                        .set(msBetween(startedAt_, Clock::now()));
                    {
                        std::lock_guard<std::mutex> lock(queueMutex_);
                        metrics_.gauge("daemon.queue.depth")
                            .set(static_cast<std::int64_t>(
                                jobQueue_.size()));
                    }
                    std::ostringstream text;
                    metrics_.renderText(text);
                    respond(s, text.str());
                    return true;
                }
                if (std::memcmp(s.req.data(), kSubmitMagic.data(), 8) !=
                    0) {
                    metrics_.counter("daemon.sessions.rejected").inc(1);
                    respondError(s, "rejected", "bad-request-magic");
                    return true;
                }
                s.state = Session::St::kSubmitHeader;
                s.req.clear();
                break;
            }
            std::uint32_t flags = trace::get32le(s.req.data());
            s.nLifeguards = trace::get32le(s.req.data() + 4);
            s.req.clear();
            if (flags != 0 || s.nLifeguards > kMaxRequestLifeguards) {
                metrics_.counter("daemon.sessions.rejected").inc(1);
                respondError(s, "rejected", "bad-submit-header");
                return true;
            }
            s.state = s.nLifeguards == 0 ? Session::St::kIngest
                                         : Session::St::kLifeguards;
            break;
        }
        case Session::St::kLifeguards: {
            while (n > 0 && s.lifeguards.size() < s.nLifeguards) {
                if (*p > static_cast<std::uint8_t>(
                             LifeguardKind::kLockSet)) {
                    metrics_.counter("daemon.sessions.rejected").inc(1);
                    respondError(s, "rejected", "bad-lifeguard-kind");
                    return true;
                }
                s.lifeguards.push_back(
                    static_cast<LifeguardKind>(*p));
                ++p;
                --n;
            }
            if (s.lifeguards.size() == s.nLifeguards)
                s.state = Session::St::kIngest;
            break;
        }
        case Session::St::kIngest: {
            ingestBytes(s, p, n);
            return true; // ingestBytes consumed everything
        }
        case Session::St::kQueued:
        case Session::St::kRunning:
            // Bytes after a complete request: protocol violation.
            metrics_.counter("daemon.sessions.rejected").inc(1);
            respondError(s, "rejected", "trailing-data");
            return true;
        case Session::St::kRespond:
        case Session::St::kLinger:
            // Already answered (shed/rejected mid-upload): discard the
            // tail the client had in flight.
            return true;
        }
    }
    return true;
}

void
Daemon::ingestBytes(Session &s, const std::uint8_t *p, std::size_t n)
{
    if (!s.spool) {
        trace::StreamIngest::Limits limits;
        limits.maxTotalBytes = cfg_.maxIngestBytes;
        limits.maxChunkBytes = cfg_.maxChunkBytes;
        s.ingest = trace::StreamIngest(limits);
        s.spoolPath = cfg_.spoolDir + "/job-" + std::to_string(s.id) +
                      ".trace";
        s.spool = std::fopen(s.spoolPath.c_str(), "wb");
        if (!s.spool) {
            metrics_.counter("daemon.jobs.failed").inc(1);
            respondError(s, "failed", "cannot-spool");
            return;
        }
    }

    // Fault daemon.corrupt-crc=N: flip one payload byte of session N's
    // upload — drives the CRC-poisons-only-this-session path without a
    // cooperating client.
    std::vector<std::uint8_t> mangled;
    if (!s.corruptDone && faultHits("daemon.corrupt-crc", s.id) &&
        s.ingestOffset + n > kCorruptOffset) {
        mangled.assign(p, p + n);
        std::size_t at = static_cast<std::size_t>(
            kCorruptOffset > s.ingestOffset
                ? kCorruptOffset - s.ingestOffset
                : 0);
        mangled[at] ^= 0x01;
        s.corruptDone = true;
        p = mangled.data();
    }
    s.ingestOffset += n;
    metrics_.counter("daemon.ingest.bytes").inc(n);

    if (std::fwrite(p, 1, n, s.spool) != n) {
        metrics_.counter("daemon.jobs.failed").inc(1);
        respondError(s, "failed", "spool-write-failed");
        return;
    }
    if (!s.ingest.feed(p, n)) {
        metrics_.counter("daemon.ingest.failed").inc(1);
        metrics_
            .counter(std::string("daemon.ingest.failed.") +
                     trace::ingestErrorName(s.ingest.errorCode()))
            .inc(1);
        metrics_.counter("daemon.jobs.failed").inc(1);
        respondError(s, "failed",
                     std::string(trace::ingestErrorName(
                         s.ingest.errorCode())) +
                         ": " + s.ingest.error());
        return;
    }
    if (s.ingest.complete())
        onUploadComplete(s);
}

void
Daemon::onUploadComplete(Session &s)
{
    std::fclose(s.spool);
    s.spool = nullptr;

    bool shed = stopping_.load(std::memory_order_acquire);
    std::size_t depth = 0;
    if (!shed) {
        std::lock_guard<std::mutex> lock(queueMutex_);
        depth = jobQueue_.size();
        shed = depth >= cfg_.maxQueuedJobs;
        if (!shed) {
            Job job;
            job.sessionId = s.id;
            job.spoolPath = s.spoolPath;
            job.lifeguards = s.lifeguards;
            job.recorded = s.ingest.header().cfg.lifeguard;
            job.appThreads = s.ingest.header().cfg.appThreads;
            job.totalRecords = s.ingest.header().totalRecords;
            jobQueue_.push_back(std::move(job));
            metrics_.gauge("daemon.queue.depth")
                .set(static_cast<std::int64_t>(jobQueue_.size()));
        }
    }
    if (shed) {
        metrics_.counter("daemon.jobs.shed").inc(1);
        std::remove(s.spoolPath.c_str());
        respondError(s, "shed",
                     stopping_.load(std::memory_order_acquire)
                         ? "draining"
                         : "queue-full");
        return;
    }
    metrics_.counter("daemon.jobs.accepted").inc(1);
    s.jobSubmitted = true;
    s.state = Session::St::kQueued;
    s.lastHeartbeat = Clock::now();
    queueCv_.notify_one();
}

void
Daemon::respond(Session &s, const std::string &body)
{
    s.out += kResponseLine;
    s.out += body;
    if (s.out.empty() || s.out.back() != '\n')
        s.out += '\n';
    s.closeAfterOut = true;
    s.state = Session::St::kRespond;
    s.lastActivity = Clock::now();
    writeSession(s); // optimistic flush; poll handles the rest
}

void
Daemon::respondError(Session &s, const std::string &status,
                     const std::string &reason)
{
    if (s.spool) {
        std::fclose(s.spool);
        s.spool = nullptr;
        std::remove(s.spoolPath.c_str());
    }
    respond(s, "{\"status\":\"" + status + "\",\"reason\":\"" +
                   jsonEscape(reason) + "\"}");
}

void
Daemon::writeSession(Session &s)
{
    while (s.outOff < s.out.size()) {
        ssize_t n = ::send(s.fd, s.out.data() + s.outOff,
                           s.out.size() - s.outOff, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK ||
                errno == EINTR)
                return;
            closeSession(s); // peer gone (EPIPE et al.)
            return;
        }
        s.outOff += static_cast<std::size_t>(n);
        s.lastActivity = Clock::now();
    }
    if (s.closeAfterOut) {
        lingerSession(s);
        return;
    }
    // Flushed: reclaim the buffer (heartbeats accumulate here).
    s.out.clear();
    s.outOff = 0;
}

void
Daemon::lingerSession(Session &s)
{
    // Closing a socket with request bytes still unread resets the
    // connection: the client would read the response and then fail
    // with ECONNRESET instead of seeing EOF. So half-close, and discard
    // what the client still sends until its EOF or the idle timeout.
    if (s.sawEof) {
        closeSession(s); // everything it sent has been read
        return;
    }
    ::shutdown(s.fd, SHUT_WR);
    s.state = Session::St::kLinger;
    s.closeAfterOut = false;
    s.out.clear();
    s.outOff = 0;
    s.lastActivity = Clock::now();
}

void
Daemon::closeSession(Session &s)
{
    if (s.closed)
        return;
    if (s.spool) {
        std::fclose(s.spool);
        s.spool = nullptr;
        if (!s.jobSubmitted)
            std::remove(s.spoolPath.c_str());
    }
    ::close(s.fd);
    s.fd = -1;
    s.closed = true;
}

void
Daemon::checkTimeouts()
{
    Clock::time_point now = Clock::now();
    for (auto &sp : sessions_) {
        Session &s = *sp;
        if (s.closed || s.state == Session::St::kQueued ||
            s.state == Session::St::kRunning)
            continue; // heartbeat path covers these
        if (msBetween(s.lastActivity, now) < cfg_.idleTimeoutMs)
            continue;
        if (s.state == Session::St::kLinger) {
            closeSession(s); // answered; it just never closed
            continue;
        }
        metrics_.counter("daemon.idle-timeouts").inc(1);
        if (s.state == Session::St::kRespond) {
            closeSession(s); // not reading its response either
        } else {
            if (s.state == Session::St::kIngest)
                metrics_.counter("daemon.jobs.failed").inc(1);
            respondError(s, "failed", "idle-timeout");
        }
    }
}

void
Daemon::drainDoneQueue()
{
    std::deque<Done> done;
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        done.swap(doneQueue_);
    }
    for (Done &d : done) {
        Session *s = findSession(d.sessionId);
        if (!s || s->closed)
            continue; // client vanished; job already accounted
        respond(*s, d.json);
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        metrics_.gauge("daemon.queue.depth")
            .set(static_cast<std::int64_t>(jobQueue_.size()));
    }
}

void
Daemon::shedQueuedJobs(const char *reason)
{
    std::deque<Job> shed;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        shed.swap(jobQueue_);
    }
    for (Job &job : shed) {
        metrics_.counter("daemon.jobs.shed").inc(1);
        std::remove(job.spoolPath.c_str());
        if (Session *s = findSession(job.sessionId))
            if (!s->closed)
                respondError(*s, "shed", reason);
    }
}

Daemon::Session *
Daemon::findSession(std::uint64_t id)
{
    for (auto &sp : sessions_)
        if (sp->id == id)
            return sp.get();
    return nullptr;
}

} // namespace paralog::daemon
