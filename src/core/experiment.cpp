#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/fault_injection.hpp"
#include "common/logging.hpp"
#include "core/replay.hpp"
#include "trace/recorder.hpp"

namespace paralog {

std::uint64_t
ExperimentOptions::envU64(const char *name, std::uint64_t fallback)
{
    const char *s = std::getenv(name);
    if (!s)
        return fallback;
    std::uint64_t v = std::strtoull(s, nullptr, 10);
    return v > 0 ? v : fallback;
}

std::uint64_t
ExperimentOptions::envScale(std::uint64_t fallback)
{
    return envU64("PARALOG_SCALE", fallback);
}

PlatformConfig
makeConfig(WorkloadKind workload, LifeguardKind lifeguard, MonitorMode mode,
           std::uint32_t threads, const ExperimentOptions &opt)
{
    PlatformConfig cfg;
    cfg.sim = SimConfig::forAppThreads(threads);
    cfg.sim.mode = mode;
    cfg.sim.depTracking = opt.depTracking;
    cfg.sim.memoryModel = opt.memoryModel;
    cfg.sim.conflictAlerts = opt.conflictAlerts;
    cfg.sim.seed = opt.seed;
    cfg.sim.logBufferBytes = opt.logBufferBytes;
    cfg.sim.shadowShards = opt.shadowShards;
    if (!opt.accelerators) {
        cfg.sim.accel.inheritanceTracking = false;
        cfg.sim.accel.idempotentFilter = false;
        cfg.sim.accel.metadataTlb = false;
    }
    cfg.lifeguard = lifeguard;
    cfg.workload = workload;
    cfg.scale = opt.scale;
    cfg.lgThreads = opt.lgThreads;
    if (opt.maxCycles > 0)
        cfg.maxCycles = opt.maxCycles;
    // Host-side delivery batch override (wall-clock A/B experiments;
    // results are identical for any value >= 1).
    if (const char *b = std::getenv("PARALOG_DELIVER_BATCH")) {
        std::uint64_t v = std::strtoull(b, nullptr, 10);
        if (v > 0)
            cfg.sim.deliverBatchMax = static_cast<std::uint32_t>(v);
    }
    return cfg;
}

RunResult
runExperiment(WorkloadKind workload, LifeguardKind lifeguard,
              MonitorMode mode, std::uint32_t threads,
              const ExperimentOptions &opt)
{
    PlatformConfig cfg = makeConfig(workload, lifeguard, mode, threads, opt);
    if (mode == MonitorMode::kTimesliced) {
        Timesliced ts(cfg);
        return ts.run();
    }
    Platform p(cfg);
    return p.run();
}

RunResult
recordExperiment(const RunSpec &spec)
{
    PARALOG_ASSERT(spec.mode == MonitorMode::kParallel,
                   "--record requires parallel monitoring mode");
    PlatformConfig cfg = makeConfig(spec.workload, spec.lifeguard,
                                    spec.mode, spec.cores, spec.opt);
    // Canonical single-pop delivery: the journal stamps producer ops
    // with the global lifeguard-step count, so the step-call structure
    // must be reproducible without the application cores. Batching is
    // simulated-result-invariant (the host wall-clock knob), but its
    // batch boundaries depend on the application-side horizon; batch
    // size 1 removes that dependence. Replay forces the same value.
    //
    // Live-parallel recordings carry no lifeguard-step stamps at all
    // (the consumers run on host threads the journal never sees), so
    // the pin is meaningless there: replay re-monitors them through
    // the protocol-enforced engine, result-exact rather than
    // schedule-exact, and may batch freely.
    const bool liveParallel = cfg.lgThreads >= 2;
    if (!liveParallel)
        cfg.sim.deliverBatchMax = 1;

    trace::TraceConfig tc;
    tc.workload = spec.workload;
    tc.lifeguard = spec.lifeguard;
    tc.mode = spec.mode;
    tc.memoryModel = cfg.sim.memoryModel;
    tc.depTracking = cfg.sim.depTracking;
    tc.conflictAlerts = cfg.sim.conflictAlerts;
    tc.accelIT = cfg.sim.accel.inheritanceTracking;
    tc.accelIF = cfg.sim.accel.idempotentFilter;
    tc.accelMTLB = cfg.sim.accel.metadataTlb;
    tc.appThreads = spec.cores;
    tc.shadowShards = cfg.sim.shadowShards;
    tc.scale = spec.opt.scale;
    tc.seed = cfg.sim.seed;
    tc.logBufferBytes = cfg.sim.logBufferBytes;
    tc.liveParallel = liveParallel;

    trace::TraceRecorder recorder(spec.recordPath, tc,
                                  spec.recordFormat);
    if (!recorder.ok())
        panic("record: %s", recorder.error().c_str());
    cfg.recorder = &recorder;

    Platform p(cfg);
    RunResult result = p.run();
    const ShadowMemory &shadow = p.lifeguard().shadow();
    result.shadowFingerprint =
        shadowFingerprint(shadow, AddressLayout::kHeapBase, 1 << 20) ^
        shadowFingerprint(shadow, AddressLayout::kGlobalBase, 1 << 16);
    if (!recorder.finalize(result, result.shadowFingerprint))
        panic("record: %s", recorder.error().c_str());
    return result;
}

RunResult
replayExperiment(const RunSpec &spec)
{
    ReplayConfig cfg;
    cfg.path = spec.replayPath;
    cfg.lifeguardOverride = true; // spec.lifeguard is already resolved
    cfg.lifeguard = spec.lifeguard;
    if (spec.opt.shadowShards != 0)
        cfg.shadowShards = spec.opt.shadowShards;
    if (spec.opt.maxCycles != 0)
        cfg.maxCycles = spec.opt.maxCycles;
    cfg.lgThreads = spec.opt.lgThreads;
    cfg.decodeJobs = spec.opt.decodeJobs;
    ReplayPlatform rp(std::move(cfg));
    return rp.run();
}

RunResult
runSpecExperiment(const RunSpec &spec)
{
    if (!spec.replayPath.empty())
        return replayExperiment(spec);
    if (!spec.recordPath.empty())
        return recordExperiment(spec);
    return runExperiment(spec.workload, spec.lifeguard, spec.mode,
                         spec.cores, spec.opt);
}

namespace {

/** Scoped panic-throw mode: restored even if a callback throws. */
class PanicThrowScope
{
  public:
    PanicThrowScope() : prev_(setPanicThrows(true)) {}
    ~PanicThrowScope() { setPanicThrows(prev_); }
    PanicThrowScope(const PanicThrowScope &) = delete;
    PanicThrowScope &operator=(const PanicThrowScope &) = delete;

  private:
    bool prev_;
};

/** Run one spec, containing any failure to the returned cell. */
CellResult
runCell(const RunSpec &spec, bool inject_failure)
{
    CellResult cell;
    auto t0 = std::chrono::steady_clock::now();
    try {
        if (inject_failure)
            panic("injected failure (cell.fail)");
        cell.result = runSpecExperiment(spec);
    } catch (const std::exception &e) {
        cell.failed = true;
        cell.error = e.what();
    } catch (...) {
        cell.failed = true;
        cell.error = "unknown error";
    }
    auto t1 = std::chrono::steady_clock::now();
    cell.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    return cell;
}

} // namespace

std::vector<CellResult>
runMatrix(const std::vector<RunSpec> &specs, unsigned jobs,
          const std::function<void(std::size_t, const CellResult &)>
              &on_cell,
          const std::atomic<bool> *cancel)
{
    const std::size_t n = specs.size();
    std::vector<CellResult> results(n);
    if (n == 0)
        return results;

    // Contain panics to their cell for the whole matrix; the scope
    // restores the previous behavior even if a callback throws. (With
    // jobs > 1 the callback runs on worker threads, where a throw
    // would std::terminate — keep callbacks non-throwing.)
    PanicThrowScope panic_scope;

    // Fault-injection point "cell.fail".
    std::size_t fail_cell = n; // out of range: no injection
    if (std::optional<std::uint64_t> v = faultValue("cell.fail"))
        fail_cell = static_cast<std::size_t>(*v);

    std::atomic<std::size_t> next{0};
    std::mutex emit_mutex;
    std::vector<bool> done(n, false);
    std::size_t next_emit = 0;

    auto worker = [&]() {
        while (true) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            CellResult cell;
            if (cancel && cancel->load(std::memory_order_relaxed))
                cell.skipped = true; // cancelled before this cell began
            else
                cell = runCell(specs[i], i == fail_cell);
            std::lock_guard<std::mutex> lock(emit_mutex);
            results[i] = std::move(cell);
            done[i] = true;
            while (next_emit < n && done[next_emit]) {
                if (on_cell)
                    on_cell(next_emit, results[next_emit]);
                ++next_emit;
            }
        }
    };

    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        unsigned spawned =
            static_cast<unsigned>(std::min<std::size_t>(jobs, n));
        pool.reserve(spawned);
        for (unsigned t = 0; t < spawned; ++t)
            pool.emplace_back(worker);
        for (std::thread &t : pool)
            t.join();
    }

    return results;
}

} // namespace paralog
