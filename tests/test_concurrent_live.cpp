/**
 * @file
 * Differential tests for the host-parallel *live* monitoring engine
 * (`--lg-threads` without `--replay`, core/platform_concurrent.cpp):
 * for every lifeguard × memory model × core count × thread count, a
 * live run with the lifeguard cores on host threads must reach exactly
 * the serial scheduler's analysis conclusions — shadow fingerprint and
 * distinct-violation set — while timing-derived columns are relaxed.
 *
 * The equality contract here is deliberately *narrower* than the
 * replay-engine differential (test_concurrent_replay.cpp): live, the
 * application's timing feedback differs between the engines (the
 * serial app waits for record *consumption* at drain points, the
 * parallel app for *publication*), so per-stream record counts and
 * TSO version counts are legitimately different executions of the
 * same program — only the analysis conclusions are invariant.
 *
 * Also covers: --record composing with the live engine (the journal
 * replays result-exact through the concurrent replay engine, selected
 * implicitly by the kCfgLiveParallel header bit), delivery batch-size
 * invariance under ring-mode consumers, the seal-protocol stall
 * watchdog (fault point "seal.stall"), and failure containment for
 * consumer-thread panics (fault point "lg.fail"), standalone and
 * through runMatrix.
 *
 * The whole suite runs under -fsanitize=thread in CI (`tsan` label):
 * the differential matrix doubles as the data-race proof for the
 * online publication seal, the producer/consumer ring hand-off, and
 * the shared delivery/analysis structures in live-concurrent mode.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.hpp"
#include "core/replay.hpp"
#include "harness/paralog_test.hpp"

namespace paralog {
namespace {

using test::QuietTest;

class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "paralog_live_" + tag + "_" +
                std::to_string(::getpid()) + ".trace")
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** One live run plus the shadow fingerprint plain runs leave unset. */
struct LiveRun
{
    RunResult result;
    std::uint64_t shadowFp = 0;
};

LiveRun
runLive(WorkloadKind w, LifeguardKind lg, std::uint32_t cores,
        MemoryModel mm, std::uint64_t scale, std::uint32_t lg_threads,
        std::uint32_t shards = 0)
{
    ExperimentOptions opt = test::makeOptions(scale);
    opt.memoryModel = mm;
    opt.lgThreads = lg_threads;
    opt.shadowShards = shards;
    PlatformConfig cfg =
        makeConfig(w, lg, MonitorMode::kParallel, cores, opt);
    Platform p(std::move(cfg));
    LiveRun run;
    run.result = p.run();
    const ShadowMemory &s = p.lifeguard().shadow();
    run.shadowFp =
        shadowFingerprint(s, AddressLayout::kHeapBase, 1 << 20) ^
        shadowFingerprint(s, AddressLayout::kGlobalBase, 1 << 16);
    return run;
}

/** The analysis-conclusion equality the live engine guarantees. See
 *  the file comment for why everything else (timing, per-stream record
 *  counts, version counters, violation *report* counts) is relaxed. */
void
expectSameAnalysis(const LiveRun &conc, const LiveRun &serial)
{
    EXPECT_EQ(conc.shadowFp, serial.shadowFp);
    EXPECT_EQ(conc.result.violationFingerprint,
              serial.result.violationFingerprint);
    EXPECT_EQ(conc.result.violationCount == 0,
              serial.result.violationCount == 0);
}

// ------------------------------------------- differential matrix ----

struct LiveCell
{
    LifeguardKind lifeguard;
    MemoryModel memoryModel;
    std::uint32_t cores;
};

class LiveConcurrentMatchesSerial
    : public test::QuietTestWithParam<LiveCell>
{
};

TEST_P(LiveConcurrentMatchesSerial, AnalysisConclusionsIdentical)
{
    const LiveCell &cell = GetParam();
    LiveRun serial = runLive(WorkloadKind::kLu, cell.lifeguard,
                             cell.cores, cell.memoryModel, 400, 0);
    ASSERT_NE(serial.shadowFp, 0u);

    // lgThreads beyond the core count exercises the min(lgThreads, k)
    // consumer clamp (every cell at cores=1 runs a single consumer).
    for (std::uint32_t threads : {2u, 4u}) {
        LiveRun conc = runLive(WorkloadKind::kLu, cell.lifeguard,
                               cell.cores, cell.memoryModel, 400,
                               threads);
        expectSameAnalysis(conc, serial);
    }
}

std::vector<LiveCell>
allLiveCells()
{
    std::vector<LiveCell> cells;
    for (LifeguardKind lg :
         {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
          LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
        for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
            for (std::uint32_t cores : {1u, 2u, 4u})
                cells.push_back(LiveCell{lg, mm, cores});
        }
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(
    LifeguardsModelsCores, LiveConcurrentMatchesSerial,
    ::testing::ValuesIn(allLiveCells()),
    [](const ::testing::TestParamInfo<LiveCell> &info) {
        return std::string(toString(info.param.lifeguard)) + "_" +
               toString(info.param.memoryModel) + "_" +
               std::to_string(info.param.cores) + "c";
    });

class LiveConcurrentModes : public QuietTest
{
};

TEST_F(LiveConcurrentModes, ShardCountInvariance)
{
    // The sharded shadow memory must reach the same fingerprint under
    // live-concurrent delivery for any shard count.
    LiveRun serial = runLive(WorkloadKind::kOcean,
                             LifeguardKind::kTaintCheck, 4,
                             MemoryModel::kSC, 400, 0);
    for (std::uint32_t shards : {1u, 4u}) {
        LiveRun conc = runLive(WorkloadKind::kOcean,
                               LifeguardKind::kTaintCheck, 4,
                               MemoryModel::kSC, 400, 4, shards);
        expectSameAnalysis(conc, serial);
    }
}

TEST_F(LiveConcurrentModes, ZeroAndOneThreadSelectTheSerialEngine)
{
    for (std::uint32_t threads : {0u, 1u}) {
        ExperimentOptions opt = test::makeOptions(300);
        opt.lgThreads = threads;
        PlatformConfig cfg =
            makeConfig(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                       MonitorMode::kParallel, 2, opt);
        Platform p(std::move(cfg));
        EXPECT_FALSE(p.concurrentLive());
        RunResult result = p.run();
        EXPECT_GT(result.totalCycles, 0u);
    }
    // And the engine is parallel-monitoring-only: the no-monitoring
    // baseline has no lifeguard cores to thread.
    ExperimentOptions opt = test::makeOptions(300);
    opt.lgThreads = 4;
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                   MonitorMode::kNoMonitoring, 2, opt);
    Platform p(std::move(cfg));
    EXPECT_FALSE(p.concurrentLive());
}

TEST_F(LiveConcurrentModes, RepeatedConcurrentRunsAreStable)
{
    // Host-thread scheduling varies run to run; analysis conclusions
    // must not. Repeats under the most protocol-heavy cell (TSO +
    // ConflictAlerts + LockSet's serialized read-side metadata writes).
    LiveRun serial = runLive(WorkloadKind::kLu, LifeguardKind::kLockSet,
                             4, MemoryModel::kTSO, 400, 0);
    for (int i = 0; i < 3; ++i) {
        LiveRun conc = runLive(WorkloadKind::kLu,
                               LifeguardKind::kLockSet, 4,
                               MemoryModel::kTSO, 400, 4);
        expectSameAnalysis(conc, serial);
    }
}

TEST_F(LiveConcurrentModes, DeliveryBatchSizeInvariance)
{
    // Ring-mode consumers deliver in solo-horizon batches; the batch
    // boundary must never leak into analysis conclusions. TSO makes
    // this load-bearing: version consume/produce ops interleave with
    // deliveries inside one batch.
    LiveRun serial = runLive(WorkloadKind::kLu,
                             LifeguardKind::kTaintCheck, 4,
                             MemoryModel::kTSO, 400, 0);
    for (const char *batch : {"1", "16"}) {
        ::setenv("PARALOG_DELIVER_BATCH", batch, 1);
        LiveRun conc = runLive(WorkloadKind::kLu,
                               LifeguardKind::kTaintCheck, 4,
                               MemoryModel::kTSO, 400, 4);
        ::unsetenv("PARALOG_DELIVER_BATCH");
        expectSameAnalysis(conc, serial);
    }
}

// ------------------------------------ record / replay composition ----

class LiveRecordReplay : public QuietTest
{
};

TEST_F(LiveRecordReplay, LiveParallelRecordingReplaysResultExact)
{
    // --record composed with --lg-threads: the journal carries the
    // kCfgLiveParallel header bit, and a same-lifeguard replay selects
    // the concurrent replay engine implicitly (the journal has no
    // lifeguard-step stamps for the serial scheduler to reproduce).
    // The replay self-checks its results against the recorded footer
    // and panics on divergence, so a clean run() *is* the proof.
    TempTrace tmp("rec");
    RunSpec rec;
    rec.workload = WorkloadKind::kLu;
    rec.lifeguard = LifeguardKind::kTaintCheck;
    rec.mode = MonitorMode::kParallel;
    rec.cores = 4;
    rec.opt = test::makeOptions(400);
    rec.opt.memoryModel = MemoryModel::kTSO;
    rec.opt.lgThreads = 2;
    rec.recordPath = tmp.path();
    RunResult live = recordExperiment(rec);
    ASSERT_NE(live.shadowFingerprint, 0u);

    // Implicit engine selection: no --lg-threads on the replay side.
    {
        ReplayConfig cfg;
        cfg.path = tmp.path();
        ReplayPlatform rp(std::move(cfg));
        EXPECT_TRUE(rp.recordedLiveParallel());
        EXPECT_TRUE(rp.recordedConfig().liveParallel);
        EXPECT_TRUE(rp.concurrent());
        RunResult result = rp.run();
        EXPECT_EQ(result.shadowFingerprint, live.shadowFingerprint);
        EXPECT_EQ(result.violationFingerprint,
                  live.violationFingerprint);
    }
    // Explicit thread counts compose with the implicit selection.
    {
        ReplayConfig cfg;
        cfg.path = tmp.path();
        cfg.lgThreads = 4;
        ReplayPlatform rp(std::move(cfg));
        EXPECT_TRUE(rp.concurrent());
        RunResult result = rp.run();
        EXPECT_EQ(result.shadowFingerprint, live.shadowFingerprint);
    }
    // Cross-lifeguard re-monitoring of a live-parallel journal keeps
    // the serial engine (approximate, no footer check): the implicit
    // selection is a same-lifeguard exactness contract only.
    {
        ReplayConfig cfg;
        cfg.path = tmp.path();
        cfg.lifeguardOverride = true;
        cfg.lifeguard = LifeguardKind::kAddrCheck;
        ReplayPlatform rp(std::move(cfg));
        EXPECT_TRUE(rp.recordedLiveParallel());
        EXPECT_FALSE(rp.concurrent());
        RunResult result = rp.run();
        EXPECT_GT(result.totalCycles, 0u);
    }
}

TEST_F(LiveRecordReplay, SerialRecordingsKeepTheHeaderBitClear)
{
    // Serial recordings must not grow the header bit (replay keeps its
    // bit-identical serial self-check, and the committed trace corpus
    // stays valid).
    TempTrace tmp("serial");
    RunSpec rec;
    rec.workload = WorkloadKind::kLu;
    rec.lifeguard = LifeguardKind::kAddrCheck;
    rec.mode = MonitorMode::kParallel;
    rec.cores = 2;
    rec.opt = test::makeOptions(300);
    rec.recordPath = tmp.path();
    recordExperiment(rec);

    ReplayConfig cfg;
    cfg.path = tmp.path();
    ReplayPlatform rp(std::move(cfg));
    EXPECT_FALSE(rp.recordedLiveParallel());
    EXPECT_FALSE(rp.concurrent());
}

// ----------------------------- watchdog + failure containment ----

class LiveConcurrentFailures : public QuietTest
{
};

TEST_F(LiveConcurrentFailures, SealStallTripsTheWatchdogWithDump)
{
    // Fault point "seal.stall" suppresses publication for one stream:
    // its consumer starves, global progress freezes, and the live
    // watchdog must catch the stall (joining the workers before it
    // panics, so the throw below crosses no live threads).
    ExperimentOptions opt = test::makeOptions(400);
    opt.lgThreads = 2;
    PlatformConfig cfg =
        makeConfig(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                   MonitorMode::kParallel, 2, opt);
    cfg.stallWatchdogIters = 20'000;

    armFault("seal.stall", 0);
    bool prev = setPanicThrows(true);
    std::string message;
    try {
        Platform p(std::move(cfg));
        p.run();
    } catch (const SimPanicError &e) {
        message = e.what();
    }
    setPanicThrows(prev);
    clearFault("seal.stall");
    EXPECT_NE(message.find("watchdog"), std::string::npos) << message;
}

TEST_F(LiveConcurrentFailures, ConsumerThreadPanicSurfacesOnOwningThread)
{
    // Fault point "lg.fail" panics on the consumer thread that owns the
    // named lifeguard stream. The engine must capture it, abort the
    // other workers, join everything, and rethrow at the join point on
    // the cell-owning thread.
    ExperimentOptions opt = test::makeOptions(300);
    opt.lgThreads = 2;

    armFault("lg.fail", 1);
    bool prev = setPanicThrows(true);
    try {
        EXPECT_THROW(
            {
                runExperiment(WorkloadKind::kLu,
                              LifeguardKind::kTaintCheck,
                              MonitorMode::kParallel, 2, opt);
            },
            SimPanicError);
    } catch (...) {
    }
    setPanicThrows(prev);
    clearFault("lg.fail");

    // The injected failure must not wedge later runs in this process.
    RunResult result =
        runExperiment(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                      MonitorMode::kParallel, 2, opt);
    EXPECT_GT(result.totalCycles, 0u);
}

TEST_F(LiveConcurrentFailures, FailedLiveCellIsContainedByRunMatrix)
{
    // runMatrix's panic-throw scope + the engine's capture-and-rethrow:
    // a live cell whose consumer thread panics comes back `failed` with
    // the message, and the remaining cells still run.
    std::vector<RunSpec> specs;
    for (int i = 0; i < 3; ++i) {
        RunSpec s;
        s.workload = WorkloadKind::kLu;
        s.lifeguard = LifeguardKind::kAddrCheck;
        s.mode = MonitorMode::kParallel;
        s.cores = 2;
        s.opt = test::makeOptions(300);
        s.opt.lgThreads = 2;
        specs.push_back(s);
    }

    armFault("lg.fail", 0);
    std::vector<CellResult> cells = runMatrix(specs, 1);
    clearFault("lg.fail");
    ASSERT_EQ(cells.size(), 3u);
    for (const CellResult &cell : cells) {
        EXPECT_TRUE(cell.failed);
        EXPECT_NE(cell.error.find("lg.fail"), std::string::npos)
            << cell.error;
    }

    // Without the fault armed, the same specs run clean at jobs > 1
    // (live-concurrent cells nest inside matrix host threads).
    cells = runMatrix(specs, 2);
    ASSERT_EQ(cells.size(), 3u);
    for (const CellResult &cell : cells)
        EXPECT_FALSE(cell.failed) << cell.error;
}

} // namespace
} // namespace paralog
