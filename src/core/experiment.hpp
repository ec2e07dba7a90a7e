/**
 * @file
 * Bench/test harness helpers: run one (workload, lifeguard, mode,
 * threads) configuration and derive the normalized metrics the paper
 * plots (Figures 6-8) — plus the multi-threaded scenario-matrix runner
 * that fans fully-specified run configs across host threads.
 *
 * Determinism contract: each cell owns its Platform (and therefore its
 * RNG, caches and shadow memory), so a cell's RunResult depends only on
 * its RunSpec — never on the job count or on which host thread executed
 * it. `runMatrix(specs, 1)` and `runMatrix(specs, N)` return identical
 * simulated results, cell for cell.
 */

#ifndef PARALOG_CORE_EXPERIMENT_HPP
#define PARALOG_CORE_EXPERIMENT_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "core/run_stats.hpp"
#include "core/timesliced.hpp"

namespace paralog {

struct ExperimentOptions
{
    std::uint64_t scale = 4000; ///< per-thread work units
    bool accelerators = true;
    DepTracking depTracking = DepTracking::kPerBlock;
    MemoryModel memoryModel = MemoryModel::kSC;
    bool conflictAlerts = true;
    std::uint64_t seed = 1;
    std::uint64_t logBufferBytes = 64 * 1024;
    /// Shadow-memory shard count (0 = auto, see SimConfig::shadowShards).
    std::uint32_t shadowShards = 0;
    /// Simulated-time watchdog override (0 = PlatformConfig default).
    std::uint64_t maxCycles = 0;
    /// Host lifeguard threads (ReplayConfig::lgThreads for replay
    /// runs, PlatformConfig::lgThreads for live ones): 0/1 = serial
    /// engine, >= 2 = concurrent engine. Live concurrent runs keep
    /// analysis fingerprints identical to serial but relax timing
    /// columns; composed with recording, the journal replays
    /// result-exact (see PlatformConfig::lgThreads).
    std::uint32_t lgThreads = 0;
    /// v2-chunk decode workers for replay runs
    /// (ReplayConfig::decodeJobs). Ignored live and for v1 traces.
    std::uint32_t decodeJobs = 1;

    /** Scale override from the environment (PARALOG_SCALE), if set. */
    static std::uint64_t envScale(std::uint64_t fallback);

    /** Generic positive-integer environment override. */
    static std::uint64_t envU64(const char *name, std::uint64_t fallback);
};

/** Run one configuration to completion. */
RunResult runExperiment(WorkloadKind workload, LifeguardKind lifeguard,
                        MonitorMode mode, std::uint32_t threads,
                        const ExperimentOptions &opt = {});

/** Build the PlatformConfig runExperiment would use (for tests). */
PlatformConfig makeConfig(WorkloadKind workload, LifeguardKind lifeguard,
                          MonitorMode mode, std::uint32_t threads,
                          const ExperimentOptions &opt = {});

// --------------------------------------------- scenario-matrix runner

/** One fully-specified cell run of the scenario matrix: everything
 *  runExperiment() needs, including the resolved seed. */
struct RunSpec
{
    WorkloadKind workload;
    LifeguardKind lifeguard;
    MonitorMode mode;
    std::uint32_t cores;
    ExperimentOptions opt;
    /// Record the run as a trace file (parallel mode only).
    std::string recordPath;
    /// Container for recordPath: trace::kFormatVersion (v1) or
    /// trace::kFormatVersionV2.
    std::uint32_t recordFormat = 1;
    /// Replay this recording instead of running live: the scenario
    /// axes come from the file; `lifeguard` still selects the monitor
    /// (a kind different from the recorded one re-monitors the
    /// recorded streams).
    std::string replayPath;
};

/**
 * Run one spec: live, recording, or replaying per its path fields.
 * Same-lifeguard replays self-check against the recorded footer and
 * panic on divergence; trace I/O errors panic too (contained per cell
 * by runMatrix's panic-throw scope).
 */
RunResult runSpecExperiment(const RunSpec &spec);

/** Record one live run (spec.mode must be kParallel). */
RunResult recordExperiment(const RunSpec &spec);

/** Replay a recording under @p spec.lifeguard (see RunSpec::replayPath);
 *  opt.shadowShards/opt.maxCycles of 0 keep the defaults. */
RunResult replayExperiment(const RunSpec &spec);

/** Outcome of one RunSpec: the result, or a captured failure. */
struct CellResult
{
    RunResult result;
    bool failed = false;
    bool skipped = false; ///< never ran: the matrix was cancelled first
    std::string error; ///< panic/exception message, set iff failed
    double wallMs = 0; ///< host wall-clock of this run
};

/**
 * Execute every spec on a pool of @p jobs host threads (inline on the
 * calling thread when jobs == 1) and return results indexed by spec
 * order. Panics and exceptions inside a run are contained to that cell
 * (panic-throw mode is enabled for the duration and restored after):
 * the cell comes back `failed` with the message, and the remaining
 * specs still run.
 *
 * @p on_cell, when set, is invoked once per spec *in spec order* as
 * results become available (under an internal lock — keep it cheap),
 * so callers can stream output while later cells are still running.
 *
 * Cooperative cancellation: when @p cancel is non-null and becomes
 * true, cells that have not started yet come back `skipped` (their
 * on_cell still fires, preserving in-order streaming); cells already
 * running finish normally. Setting it from a signal handler is fine —
 * the flag is only ever loaded here.
 *
 * Test hook: when the fault-injection point "cell.fail" (see
 * common/fault_injection.hpp) names a spec index, that cell panics instead of running — the deterministic
 * way to exercise mid-matrix failure handling at any jobs count.
 */
std::vector<CellResult>
runMatrix(const std::vector<RunSpec> &specs, unsigned jobs,
          const std::function<void(std::size_t, const CellResult &)>
              &on_cell = {},
          const std::atomic<bool> *cancel = nullptr);

} // namespace paralog

#endif // PARALOG_CORE_EXPERIMENT_HPP
