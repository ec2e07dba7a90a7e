/**
 * @file
 * paralogd: a long-running monitoring service. Clients upload
 * `paralog-trace-v1` recordings over a Unix-domain socket (protocol.hpp)
 * and get back re-monitoring results — the uploaded journal replayed
 * under the lifeguards they asked for, with shadow/violation
 * fingerprints and stats in the response.
 *
 * Robustness is the point of this component, so its structure is rigid:
 *
 *   - ONE event-loop thread owns every socket. It accepts, ingests,
 *     validates (stream_ingest.hpp), sends heartbeats and responses,
 *     and enforces idle timeouts. Workers never touch a socket.
 *   - A fixed pool of worker threads takes jobs from a bounded queue
 *     and runs them through runMatrix(.., 1) — the same panic-contained
 *     cell runner the CLI matrix uses, so a SimPanicError inside a job
 *     marks that job failed and nothing else.
 *   - Admission control rejects instead of blocking: over maxSessions,
 *     the connection is answered and closed; over maxQueuedJobs, the
 *     completed upload is shed with a reason. The accept loop never
 *     waits on a worker.
 *   - Every close after a response lingers: the write side is shut and
 *     the rest of the upload is read and discarded until EOF or the
 *     idle timeout, so the client reads its verdict and then a clean
 *     EOF, never a reset. Lingering sessions hold no session slot.
 *   - Everything is accounted in a MetricRegistry (stats request):
 *     jobs {accepted, completed, shed, failed}, queue depth, ingest
 *     bytes/failures by taxonomy, per-lifeguard latency percentiles.
 *   - requestStop() (async-signal-safe) drains: stop accepting, shed
 *     what is still queued, finish what is running, flush responses,
 *     then run() returns 0.
 *
 * Fault-injection points (common/fault_injection.hpp):
 *   daemon.drop-conn=N     close the Nth accepted connection unread
 *   daemon.corrupt-crc=N   flip one ingest byte of the Nth session
 *   daemon.stall-worker=MS sleep MS before each job (heartbeat tests)
 */

#ifndef PARALOG_DAEMON_DAEMON_HPP
#define PARALOG_DAEMON_DAEMON_HPP

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metric_registry.hpp"
#include "lifeguard/lifeguard.hpp"
#include "trace/stream_ingest.hpp"

namespace paralog::daemon {

struct DaemonConfig
{
    /// Unix-domain socket path to listen on (required; unlinked and
    /// rebound at start, unlinked again on clean exit).
    std::string socketPath;
    /// Worker threads running re-monitoring jobs.
    unsigned workers = 2;
    /// Admission: concurrent client sessions (accept + reject beyond).
    std::size_t maxSessions = 64;
    /// Admission: completed uploads waiting for a worker (shed beyond).
    std::size_t maxQueuedJobs = 8;
    /// Per-session ingest budget (StreamIngest kTooLarge beyond).
    std::uint64_t maxIngestBytes = 256ull << 20;
    std::uint32_t maxChunkBytes = 16u << 20;
    /// A session that sends nothing for this long is closed (slow-loris
    /// defense; only Ingest-state sessions are on this clock). Also
    /// bounds a lingering close, timed from its start.
    int idleTimeoutMs = 5000;
    /// Heartbeat cadence towards queued/running sessions.
    int heartbeatMs = 500;
    /// Host lifeguard threads per replay job (ReplayConfig::lgThreads).
    std::uint32_t lgThreads = 0;
    /// Directory for spooled uploads (default: "<socketPath>.spool").
    std::string spoolDir;
    /// Suppress per-connection logging to stderr.
    bool quiet = false;
};

class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &cfg);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Bind, listen, spawn workers. False (with error()) on failure. */
    bool start();

    /**
     * Serve until requestStop(). Runs the event loop on the calling
     * thread; returns the process exit code (0 = clean drain).
     */
    int run();

    /**
     * Begin graceful drain. Async-signal-safe (atomic store + pipe
     * write) — call it from a SIGTERM/SIGINT handler or another thread.
     */
    void requestStop();

    const std::string &error() const { return error_; }
    MetricRegistry &metrics() { return metrics_; }

  private:
    struct Session;
    struct Job
    {
        std::uint64_t sessionId = 0;
        std::string spoolPath;
        std::vector<LifeguardKind> lifeguards;
        LifeguardKind recorded = LifeguardKind::kTaintCheck;
        std::uint32_t appThreads = 0;
        std::uint64_t totalRecords = 0;
    };
    struct Done
    {
        std::uint64_t sessionId = 0;
        std::string json;
        bool failed = false;
    };

    void eventLoop();
    void workerLoop();
    std::string runJob(const Job &job);

    void acceptClients(int listen_fd);
    void readSession(Session &s);
    bool handleRequestBytes(Session &s, const std::uint8_t *p,
                            std::size_t n);
    void ingestBytes(Session &s, const std::uint8_t *p, std::size_t n);
    void onUploadComplete(Session &s);
    void writeSession(Session &s);
    void respond(Session &s, const std::string &body);
    void respondError(Session &s, const std::string &status,
                      const std::string &reason);
    /** After the response: shut the write side, drain to EOF. */
    void lingerSession(Session &s);
    void closeSession(Session &s);
    void checkTimeouts();
    void drainDoneQueue();
    void shedQueuedJobs(const char *reason);
    Session *findSession(std::uint64_t id);

    DaemonConfig cfg_;
    MetricRegistry metrics_;
    std::string error_;

    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> stopping_{false};

    std::vector<std::unique_ptr<Session>> sessions_;
    std::uint64_t nextSessionId_ = 0;
    std::uint64_t acceptedConns_ = 0;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Job> jobQueue_;
    bool workersQuit_ = false;
    std::vector<std::thread> workers_;

    std::mutex doneMutex_;
    std::deque<Done> doneQueue_;
    std::atomic<std::uint64_t> jobSeq_{0}; ///< job.fail fault cursor

    std::chrono::steady_clock::time_point startedAt_;
    bool panicThrowsPrev_ = false;
};

/** JSON string escaping for the response bodies (shared with client
 *  tests that assemble expected substrings). */
std::string jsonEscape(const std::string &s);

} // namespace paralog::daemon

#endif // PARALOG_DAEMON_DAEMON_HPP
