/**
 * @file
 * End-to-end tests for paralogd (daemon/daemon.hpp): a daemon instance
 * runs on a background thread in-process, real clients talk to it over
 * its Unix-domain socket, and the acceptance bar of the service is
 * asserted directly —
 *
 *   - a submitted recording re-monitors to the SAME shadow fingerprint
 *     as an offline `--replay` of the same file;
 *   - one misbehaving client (corrupt CRC, mid-upload disconnect,
 *     slow-loris, garbage magic, trailing bytes) poisons only its own
 *     session and is accounted in the metrics taxonomy;
 *   - admission control rejects/sheds with a reason instead of
 *     blocking; worker panics are contained to their job;
 *   - a chaos mix of concurrent well- and ill-behaved clients leaves
 *     the books balanced and the daemon drains to exit code 0.
 */

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
#include "harness/paralog_test.hpp"
#include "trace/format.hpp"

namespace paralog::daemon {
namespace {

using test::QuietTest;

std::string
hexU64(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::vector<std::uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
}

/**
 * One recorded trace shared by the whole suite (recording is the slow
 * part), plus the offline-replay fingerprints every daemon answer must
 * reproduce.
 */
struct SharedTrace
{
    std::string path;
    std::uint64_t shadowFp = 0;
    std::uint64_t violationFp = 0;
};

const SharedTrace &
sharedTrace()
{
    static const SharedTrace t = [] {
        SharedTrace s;
        s.path = ::testing::TempDir() + "paralogd_shared_" +
                 std::to_string(::getpid()) + ".trace";
        RunSpec spec;
        spec.workload = WorkloadKind::kLu;
        spec.lifeguard = LifeguardKind::kTaintCheck;
        spec.mode = MonitorMode::kParallel;
        spec.cores = 2;
        spec.opt = test::makeOptions(600);
        spec.recordPath = s.path;
        recordExperiment(spec);

        RunSpec replay = spec;
        replay.recordPath.clear();
        replay.replayPath = s.path;
        RunResult r = replayExperiment(replay);
        s.shadowFp = r.shadowFingerprint;
        s.violationFp = r.violationFingerprint;
        return s;
    }();
    return t;
}

/** In-process daemon on a background thread, torn down by dtor. */
class DaemonHarness
{
  public:
    /** @p serve_now false: listening, but no connection is accepted until
     *  serve() runs the event loop. */
    explicit DaemonHarness(const std::string &tag, DaemonConfig cfg = {},
                           bool serve_now = true)
    {
        cfg.socketPath = ::testing::TempDir() + "pld_" + tag + "_" +
                         std::to_string(::getpid()) + ".sock";
        cfg.quiet = true;
        if (cfg.heartbeatMs == 500)
            cfg.heartbeatMs = 100; // fast heartbeats for short tests
        cfg_ = cfg;
        daemon_ = std::make_unique<Daemon>(cfg_);
        started_ = daemon_->start();
        if (serve_now)
            serve();
    }

    void
    serve()
    {
        if (started_ && !thread_.joinable())
            thread_ = std::thread([this] { rc_ = daemon_->run(); });
    }

    ~DaemonHarness()
    {
        stop();
        std::remove(cfg_.socketPath.c_str());
        ::rmdir((cfg_.socketPath + ".spool").c_str());
    }

    /** Request drain, join, return the daemon's exit code. */
    int
    stop()
    {
        if (thread_.joinable()) {
            daemon_->requestStop();
            thread_.join();
        }
        return rc_;
    }

    bool started() const { return started_; }
    const std::string &socket() const { return cfg_.socketPath; }
    MetricRegistry &metrics() { return daemon_->metrics(); }

    SubmitOptions
    submitOpts() const
    {
        SubmitOptions opt;
        opt.socketPath = cfg_.socketPath;
        return opt;
    }

  private:
    DaemonConfig cfg_;
    std::unique_ptr<Daemon> daemon_;
    std::thread thread_;
    bool started_ = false;
    int rc_ = -1;
};

/** Spin until @p pred holds (the event loop runs on its own clock). */
bool
waitFor(const std::function<bool()> &pred, int timeout_ms = 10000)
{
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return true;
}

/** A raw connection to the daemon, or -1. */
int
connectRaw(const std::string &socket_path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Raw protocol client: send @p bytes, half-close, read the answer. */
std::string
rawExchange(const std::string &socket_path, const std::string &bytes)
{
    int fd = connectRaw(socket_path);
    if (fd < 0)
        return "";
    (void)::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ::shutdown(fd, SHUT_WR);
    std::string out;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    ::close(fd);
    return out;
}

class DaemonTest : public QuietTest
{
  protected:
    void TearDown() override { clearAllFaults(); }

    static std::string
    fingerprintField(std::uint64_t fp)
    {
        return "\"shadowFingerprint\":\"" + hexU64(fp) + "\"";
    }
};

// ------------------------------------------------------------ happy path

TEST_F(DaemonTest, SubmitMatchesOfflineReplay)
{
    DaemonHarness h("e2e");
    ASSERT_TRUE(h.started());

    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "ok") << r.responseJson;
    // The acceptance bar: the daemon's re-monitoring run reproduces the
    // offline `--replay` fingerprints bit-identically.
    EXPECT_NE(r.responseJson.find(fingerprintField(sharedTrace().shadowFp)),
              std::string::npos)
        << r.responseJson;
    EXPECT_NE(r.responseJson.find("\"violationFingerprint\":\"" +
                                  hexU64(sharedTrace().violationFp) +
                                  "\""),
              std::string::npos)
        << r.responseJson;
    EXPECT_NE(r.responseJson.find("\"selfCheck\":true"),
              std::string::npos);
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, SubmitUnderMultipleLifeguards)
{
    DaemonHarness h("multi");
    ASSERT_TRUE(h.started());

    SubmitOptions opt = h.submitOpts();
    opt.lifeguards = {LifeguardKind::kTaintCheck,
                      LifeguardKind::kAddrCheck};
    SubmitResult r = submitTrace(sharedTrace().path, opt);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "ok") << r.responseJson;
    EXPECT_NE(r.responseJson.find("\"lifeguard\":\"TaintCheck\""),
              std::string::npos);
    EXPECT_NE(r.responseJson.find("\"lifeguard\":\"AddrCheck\""),
              std::string::npos);
    // The same-kind run self-checks; the cross-kind run is the
    // approximate re-monitoring mode.
    EXPECT_NE(r.responseJson.find("\"selfCheck\":true"),
              std::string::npos);
    EXPECT_NE(r.responseJson.find("\"selfCheck\":false"),
              std::string::npos);
}

TEST_F(DaemonTest, StatsEndpointRendersMetrics)
{
    DaemonHarness h("stats");
    ASSERT_TRUE(h.started());

    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;

    std::string text, err;
    ASSERT_TRUE(fetchStats(h.socket(), text, err)) << err;
    EXPECT_NE(text.find("counter daemon.conns.accepted"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("counter daemon.jobs.completed 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("gauge daemon.uptime-ms"), std::string::npos);
    EXPECT_NE(text.find("meter daemon.lg.TaintCheck.ms"),
              std::string::npos);
}

// -------------------------------------------- ill-behaved clients

TEST_F(DaemonTest, CorruptCrcClientPoisonsOnlyItsSession)
{
    DaemonHarness h("crc");
    ASSERT_TRUE(h.started());

    SubmitOptions bad = h.submitOpts();
    bad.corruptByteOffset =
        static_cast<long>(trace::kHeaderBytes) + 16 + 2; // payload byte
    SubmitResult r = submitTrace(sharedTrace().path, bad);
    ASSERT_TRUE(r.ok) << r.error; // transport fine; verdict is not
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("crc-mismatch"), std::string::npos)
        << r.responseJson;
    EXPECT_GE(h.metrics().counterValue("daemon.ingest.failed.crc-mismatch"),
              1u);

    // The daemon is unharmed: a clean submit still round-trips.
    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, DaemonSideCrcFaultHitsOneSession)
{
    DaemonHarness h("crcfault");
    ASSERT_TRUE(h.started());

    armFault("daemon.corrupt-crc", 0); // first session's upload
    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("crc-mismatch"), std::string::npos);
    clearFault("daemon.corrupt-crc");

    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

TEST_F(DaemonTest, MidUploadDisconnectIsAccountedTruncated)
{
    DaemonHarness h("dc");
    ASSERT_TRUE(h.started());

    SubmitOptions bad = h.submitOpts();
    bad.disconnectAfterFraction = 0.5;
    bad.chunkBytes = 4096;
    SubmitResult r = submitTrace(sharedTrace().path, bad);
    EXPECT_FALSE(r.ok); // we hung up on purpose

    EXPECT_TRUE(waitFor([&] {
        return h.metrics().counterValue(
                   "daemon.ingest.failed.truncated") >= 1;
    }));
    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

TEST_F(DaemonTest, HeaderOnlyUploadIsTruncated)
{
    DaemonHarness h("hdronly");
    ASSERT_TRUE(h.started());

    std::vector<std::uint8_t> bytes = slurp(sharedTrace().path);
    ASSERT_GT(bytes.size(), trace::kHeaderBytes);
    bytes.resize(trace::kHeaderBytes);
    std::string stub = ::testing::TempDir() + "pld_hdronly_" +
                       std::to_string(::getpid()) + ".trace";
    spit(stub, bytes);

    SubmitResult r = submitTrace(stub, h.submitOpts());
    std::remove(stub.c_str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("truncated"), std::string::npos)
        << r.responseJson;
}

TEST_F(DaemonTest, TrailingBytesAfterFooterAreRejected)
{
    DaemonHarness h("trail");
    ASSERT_TRUE(h.started());

    std::vector<std::uint8_t> bytes = slurp(sharedTrace().path);
    bytes.push_back(0x42);
    std::string stub = ::testing::TempDir() + "pld_trail_" +
                       std::to_string(::getpid()) + ".trace";
    spit(stub, bytes);

    SubmitResult r = submitTrace(stub, h.submitOpts());
    std::remove(stub.c_str());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("trailing-data"), std::string::npos)
        << r.responseJson;
}

TEST_F(DaemonTest, GarbageMagicIsRejected)
{
    DaemonHarness h("magic");
    ASSERT_TRUE(h.started());

    std::string answer = rawExchange(h.socket(), "NOTAPROT");
    EXPECT_NE(answer.find("\"status\":\"rejected\""), std::string::npos)
        << answer;
    EXPECT_NE(answer.find("bad-request-magic"), std::string::npos);
    EXPECT_GE(h.metrics().counterValue("daemon.sessions.rejected"), 1u);
}

TEST_F(DaemonTest, SlowLorisHitsIdleTimeout)
{
    DaemonConfig cfg;
    cfg.idleTimeoutMs = 200;
    DaemonHarness h("loris", cfg);
    ASSERT_TRUE(h.started());

    SubmitOptions slow = h.submitOpts();
    slow.chunkBytes = 512;
    slow.interChunkDelayMs = 800; // way past the idle clock
    slow.timeoutMs = 20000;
    SubmitResult r = submitTrace(sharedTrace().path, slow);
    // The daemon answers "failed"/idle-timeout and closes; depending on
    // timing the client sees that response or a send failure.
    if (r.ok) {
        EXPECT_EQ(r.status(), "failed") << r.responseJson;
    }
    EXPECT_TRUE(waitFor([&] {
        return h.metrics().counterValue("daemon.idle-timeouts") >= 1;
    }));

    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

TEST_F(DaemonTest, DroppedConnectionFaultLeavesDaemonServing)
{
    DaemonHarness h("drop");
    ASSERT_TRUE(h.started());

    armFault("daemon.drop-conn", 0); // first accepted connection
    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    EXPECT_FALSE(r.ok); // peer vanished before answering
    clearFault("daemon.drop-conn");
    EXPECT_EQ(h.metrics().counterValue("daemon.conns.dropped"), 1u);

    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
}

// ------------------------------------------- admission and containment

TEST_F(DaemonTest, OverSessionCapIsRejectedNotBlocked)
{
    DaemonConfig cfg;
    cfg.maxSessions = 1;
    DaemonHarness h("cap", cfg);
    ASSERT_TRUE(h.started());

    // Occupy the one session slot with an idle connection.
    int fd = connectRaw(h.socket());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(waitFor([&] {
        return h.metrics().counterValue("daemon.conns.accepted") >= 1;
    }));

    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error; // answered immediately, not queued
    EXPECT_EQ(r.status(), "rejected") << r.responseJson;
    EXPECT_NE(r.responseJson.find("too-many-sessions"),
              std::string::npos);
    ::close(fd);
}

TEST_F(DaemonTest, RejectedUploadReadsVerdictThenCleanEof)
{
    // A client over the session cap still has its upload in flight when
    // the daemon answers. Closing the socket with those bytes unread
    // resets the connection: the client reads the verdict, then its
    // next recv fails with ECONNRESET instead of seeing EOF. The
    // ordering is made certain here, not left to timing: both
    // connections and the upload prefix are queued before the event
    // loop accepts anything, so the rejected session's bytes are unread
    // when the daemon answers it.
    DaemonConfig cfg;
    cfg.maxSessions = 1;
    DaemonHarness h("linger", cfg, false);
    ASSERT_TRUE(h.started());

    int hold = connectRaw(h.socket()); // accepted first: takes the slot
    ASSERT_GE(hold, 0);
    std::vector<std::uint8_t> upload(kSubmitMagic.begin(),
                                     kSubmitMagic.end());
    upload.resize(upload.size() + kSubmitHeaderBytes, 0); // no lifeguards
    std::vector<std::uint8_t> trace = slurp(sharedTrace().path);
    ASSERT_GT(trace.size(), 4096u);
    upload.insert(upload.end(), trace.begin(), trace.begin() + 4096);
    int fd = connectRaw(h.socket());
    ASSERT_GE(fd, 0);
    timeval tv{10, 0}; // a missing EOF fails the test instead of hanging
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)),
              0);
    ASSERT_EQ(::send(fd, upload.data(), upload.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(upload.size()))
        << std::strerror(errno);
    h.serve();

    std::string answer;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        answer.append(buf, static_cast<std::size_t>(n));
    const int err = n < 0 ? errno : 0;
    EXPECT_NE(answer.find("\"status\":\"rejected\""), std::string::npos)
        << answer;
    EXPECT_NE(answer.find("too-many-sessions"), std::string::npos);
    EXPECT_EQ(n, 0) << "after the verdict: " << std::strerror(err);
    ::close(fd);
    ::close(hold);
}

TEST_F(DaemonTest, FullQueueShedsInsteadOfBlocking)
{
    DaemonConfig cfg;
    cfg.workers = 1;
    cfg.maxQueuedJobs = 1;
    DaemonHarness h("shed", cfg);
    ASSERT_TRUE(h.started());

    armFault("daemon.stall-worker", 600); // hold the one worker busy

    constexpr int kClients = 4;
    std::vector<SubmitResult> results(kClients);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&, i] {
            results[i] = submitTrace(sharedTrace().path, h.submitOpts());
        });
    for (std::thread &t : clients)
        t.join();
    clearFault("daemon.stall-worker");

    int ok = 0, shed = 0;
    for (const SubmitResult &r : results) {
        ASSERT_TRUE(r.ok) << r.error; // every client got an answer
        if (r.status() == "ok")
            ++ok;
        else if (r.status() == "shed") {
            ++shed;
            EXPECT_NE(r.responseJson.find("queue-full"),
                      std::string::npos)
                << r.responseJson;
        }
    }
    EXPECT_GE(ok, 1);
    EXPECT_GE(shed, 1);
    EXPECT_EQ(ok + shed, kClients);
    EXPECT_EQ(h.metrics().counterValue("daemon.jobs.shed"),
              static_cast<std::uint64_t>(shed));
}

TEST_F(DaemonTest, WorkerPanicIsContainedToItsJob)
{
    DaemonHarness h("panic");
    ASSERT_TRUE(h.started());

    armFault("job.fail", 0); // first job panics in its worker
    SubmitResult r = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "failed") << r.responseJson;
    EXPECT_NE(r.responseJson.find("injected failure"),
              std::string::npos)
        << r.responseJson;
    clearFault("job.fail");

    // Same worker pool, next job: unharmed.
    SubmitResult good = submitTrace(sharedTrace().path, h.submitOpts());
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.status(), "ok") << good.responseJson;
    EXPECT_GE(h.metrics().counterValue("daemon.jobs.failed"), 1u);
    EXPECT_GE(h.metrics().counterValue("daemon.jobs.completed"), 1u);
    EXPECT_EQ(h.stop(), 0);
}

TEST_F(DaemonTest, DrainFinishesRunningJobAndExitsZero)
{
    DaemonHarness h("drain");
    ASSERT_TRUE(h.started());

    armFault("daemon.stall-worker", 500);
    SubmitResult r;
    std::thread client([&] {
        r = submitTrace(sharedTrace().path, h.submitOpts());
    });
    // Wait until the job is accepted (and promptly picked up by an
    // idle worker), then start the drain under it.
    ASSERT_TRUE(waitFor([&] {
        return h.metrics().counterValue("daemon.jobs.accepted") >= 1;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    int rc = h.stop();
    client.join();
    clearFault("daemon.stall-worker");

    EXPECT_EQ(rc, 0);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.status(), "ok") << r.responseJson;
    EXPECT_GE(r.heartbeats, 1) << "no PLHB while the worker stalled";
}

// ------------------------------------------------------------ chaos mix

TEST_F(DaemonTest, ChaosMixDrainsCleanWithBalancedBooks)
{
    DaemonConfig cfg;
    cfg.workers = 2;
    cfg.maxQueuedJobs = 16; // well-behaved clients must not be shed
    DaemonHarness h("chaos", cfg);
    ASSERT_TRUE(h.started());

    const std::string &trace_path = sharedTrace().path;
    std::string expect_fp = fingerprintField(sharedTrace().shadowFp);

    // Stub files for the structurally-broken clients.
    std::vector<std::uint8_t> bytes = slurp(trace_path);
    std::vector<std::uint8_t> header_only(
        bytes.begin(), bytes.begin() + trace::kHeaderBytes);
    std::string stub = ::testing::TempDir() + "pld_chaos_stub_" +
                       std::to_string(::getpid()) + ".trace";
    spit(stub, header_only);

    constexpr int kGood = 6;
    std::vector<SubmitResult> good(kGood);
    SubmitResult corrupt, vanisher, slow, headerOnly;
    std::vector<std::thread> clients;

    for (int i = 0; i < kGood; ++i)
        clients.emplace_back([&, i] {
            SubmitOptions opt = h.submitOpts();
            if (i == 0)
                opt.lifeguards = {LifeguardKind::kTaintCheck,
                                  LifeguardKind::kAddrCheck};
            if (i % 2)
                opt.chunkBytes = 1536; // ragged send sizes
            good[i] = submitTrace(trace_path, opt);
        });
    clients.emplace_back([&] {
        SubmitOptions opt = h.submitOpts();
        opt.corruptByteOffset =
            static_cast<long>(trace::kHeaderBytes) + 16 + 5;
        corrupt = submitTrace(trace_path, opt);
    });
    clients.emplace_back([&] {
        SubmitOptions opt = h.submitOpts();
        opt.disconnectAfterFraction = 0.4;
        opt.chunkBytes = 4096;
        vanisher = submitTrace(trace_path, opt);
    });
    clients.emplace_back([&] {
        SubmitOptions opt = h.submitOpts();
        opt.chunkBytes = 16 * 1024;
        opt.interChunkDelayMs = 5; // slow but inside the idle budget
        slow = submitTrace(trace_path, opt);
    });
    clients.emplace_back(
        [&] { headerOnly = submitTrace(stub, h.submitOpts()); });
    clients.emplace_back([&] { // stats poller riding along
        for (int i = 0; i < 10; ++i) {
            std::string text, err;
            fetchStats(h.socket(), text, err);
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
    });

    for (std::thread &t : clients)
        t.join();
    std::remove(stub.c_str());

    // Every well-behaved client got the offline-replay fingerprint.
    for (int i = 0; i < kGood; ++i) {
        ASSERT_TRUE(good[i].ok) << i << ": " << good[i].error;
        EXPECT_EQ(good[i].status(), "ok") << good[i].responseJson;
        EXPECT_NE(good[i].responseJson.find(expect_fp),
                  std::string::npos)
            << good[i].responseJson;
    }
    ASSERT_TRUE(slow.ok) << slow.error;
    EXPECT_EQ(slow.status(), "ok");
    EXPECT_NE(slow.responseJson.find(expect_fp), std::string::npos);

    // Every ill-behaved client was answered (or cut off) and accounted.
    ASSERT_TRUE(corrupt.ok) << corrupt.error;
    EXPECT_EQ(corrupt.status(), "failed");
    EXPECT_FALSE(vanisher.ok);
    ASSERT_TRUE(headerOnly.ok) << headerOnly.error;
    EXPECT_EQ(headerOnly.status(), "failed");

    MetricRegistry &m = h.metrics();
    EXPECT_GE(m.counterValue("daemon.ingest.failed.crc-mismatch"), 1u);
    EXPECT_TRUE(waitFor([&] {
        return m.counterValue("daemon.ingest.failed.truncated") >= 2;
    })) << "disconnect + header-only not accounted";

    // Books balance: all accepted jobs ran to a verdict, nothing stuck.
    EXPECT_TRUE(waitFor([&] {
        return m.counterValue("daemon.jobs.accepted") ==
               m.counterValue("daemon.jobs.completed");
    }));
    EXPECT_EQ(m.counterValue("daemon.jobs.accepted"),
              static_cast<std::uint64_t>(kGood) + 1); // good + slow

    EXPECT_EQ(h.stop(), 0) << "chaos left the daemon unable to drain";
}

} // namespace
} // namespace paralog::daemon
