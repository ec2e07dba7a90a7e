/**
 * @file
 * Differential tests for the host-parallel replay engine
 * (`--lg-threads`, ReplayPlatform::runConcurrent): for every lifeguard ×
 * memory model × core count × shard count, a recording replayed
 * concurrently must reach exactly the serial engine's analysis results
 * — shadow fingerprint, violations, records processed, versions
 * produced/consumed — while its simulated timing is relaxed. Also
 * covers failure containment: a panic on a producer/consumer worker
 * thread must surface on the cell-owning thread (and come back as a
 * failed cell through runMatrix), never escape a host thread.
 *
 * The whole suite runs under -fsanitize=thread in CI (`tsan` label):
 * the differential matrix doubles as the data-race proof for the
 * ring hand-off, the progress-table backbone, and the shared
 * delivery/analysis structures in concurrent mode.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/replay.hpp"
#include "harness/paralog_test.hpp"

namespace paralog {
namespace {

using test::QuietTest;

class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(::testing::TempDir() + "paralog_conc_" + tag + "_" +
                std::to_string(::getpid()) + ".trace")
    {
    }
    ~TempTrace() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

RunSpec
makeSpec(WorkloadKind w, LifeguardKind lg, std::uint32_t cores,
         MemoryModel mm, std::uint64_t scale, const std::string &record,
         const std::string &replay = "")
{
    RunSpec spec;
    spec.workload = w;
    spec.lifeguard = lg;
    spec.mode = MonitorMode::kParallel;
    spec.cores = cores;
    spec.opt = test::makeOptions(scale);
    spec.opt.memoryModel = mm;
    spec.recordPath = record;
    spec.replayPath = replay;
    return spec;
}

/** The analysis-results equality the concurrent engine guarantees
 *  (timing columns are relaxed by design and not compared). Violation
 *  and event counts are compared at set granularity, not report
 *  granularity: the Idempotent Filters absorb *duplicate* checks, and
 *  how many duplicates they absorb depends on stall-flush timing,
 *  which free-running consumers do not reproduce — but a first
 *  occurrence can never be absorbed, so the distinct-violation
 *  fingerprint and found-any must match exactly. */
void
expectSameAnalysis(const RunResult &conc, const RunResult &serial)
{
    EXPECT_EQ(conc.shadowFingerprint, serial.shadowFingerprint);
    EXPECT_EQ(conc.violationFingerprint, serial.violationFingerprint);
    EXPECT_EQ(conc.violationCount == 0, serial.violationCount == 0);
    EXPECT_EQ(conc.versionsProduced, serial.versionsProduced);
    EXPECT_EQ(conc.versionsConsumed, serial.versionsConsumed);
    ASSERT_EQ(conc.lifeguard.size(), serial.lifeguard.size());
    for (std::size_t i = 0; i < serial.lifeguard.size(); ++i) {
        EXPECT_EQ(conc.lifeguard[i].recordsProcessed,
                  serial.lifeguard[i].recordsProcessed)
            << "lg " << i;
    }
}

// ------------------------------------------- differential matrix ----

struct ConcCell
{
    LifeguardKind lifeguard;
    MemoryModel memoryModel;
    std::uint32_t cores;
    WorkloadKind workload = WorkloadKind::kLu;
    /// The recording must hold consume-annotation attempts that did not
    /// take effect (more kAnnotateConsume ops than kInsertProduce ops).
    bool failedAttempts = false;
};

/** Journal ops of @p op kind over every thread of a recording. */
std::uint64_t
countOps(const std::string &path, trace::OpCode op)
{
    trace::TraceReader reader(path);
    EXPECT_TRUE(reader.ok()) << reader.error();
    std::uint64_t n = 0;
    for (ThreadId t = 0; t < reader.config().appThreads; ++t) {
        trace::TraceReader::OpStream s = reader.opStream(t);
        trace::TraceOp o;
        while (s.next(o))
            n += o.op == op ? 1 : 0;
    }
    return n;
}

class ConcurrentMatchesSerial : public test::QuietTestWithParam<ConcCell>
{
};

TEST_P(ConcurrentMatchesSerial, FingerprintAndStatsIdentical)
{
    const ConcCell &cell = GetParam();
    TempTrace tmp("diff");
    RunSpec rec = makeSpec(cell.workload, cell.lifeguard, cell.cores,
                           cell.memoryModel, 400, tmp.path());
    RunResult live = recordExperiment(rec);
    ASSERT_NE(live.shadowFingerprint, 0u);
    if (cell.failedAttempts) {
        ASSERT_GT(countOps(tmp.path(), trace::OpCode::kAnnotateConsume),
                  countOps(tmp.path(), trace::OpCode::kInsertProduce));
    }

    RunSpec replay = makeSpec(cell.workload, cell.lifeguard, cell.cores,
                              cell.memoryModel, 400, "", tmp.path());
    RunResult serial = replayExperiment(replay);
    expectSameAnalysis(serial, live); // sanity: serial matches live

    // The concurrent engine self-checks its results against the trace
    // footer (panics on divergence); the host-side comparison here is
    // the belt to that suspenders. lgThreads beyond the core count
    // exercises the min(lgThreads, k) clamp.
    for (std::uint32_t threads : {2u, 4u}) {
        RunSpec conc = replay;
        conc.opt.lgThreads = threads;
        RunResult result = replayExperiment(conc);
        expectSameAnalysis(result, serial);
    }
}

std::vector<ConcCell>
allConcCells()
{
    std::vector<ConcCell> cells;
    for (LifeguardKind lg :
         {LifeguardKind::kAddrCheck, LifeguardKind::kTaintCheck,
          LifeguardKind::kMemCheck, LifeguardKind::kLockSet}) {
        for (MemoryModel mm : {MemoryModel::kSC, MemoryModel::kTSO}) {
            for (std::uint32_t cores : {1u, 2u, 4u})
                cells.push_back(ConcCell{lg, mm, cores});
        }
    }
    // Serial ocean recordings under TSO journal annotation attempts
    // that did not take effect: a duplicate tag (TaintCheck), and a
    // barrier pass the serial lifeguard had already consumed (LockSet).
    for (LifeguardKind lg :
         {LifeguardKind::kTaintCheck, LifeguardKind::kLockSet}) {
        cells.push_back(ConcCell{lg, MemoryModel::kTSO, 4,
                                 WorkloadKind::kOcean, true});
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(
    LifeguardsModelsCores, ConcurrentMatchesSerial,
    ::testing::ValuesIn(allConcCells()),
    [](const ::testing::TestParamInfo<ConcCell> &info) {
        std::string workload =
            info.param.workload == WorkloadKind::kLu
                ? ""
                : std::string(toString(info.param.workload)) + "_";
        return workload + toString(info.param.lifeguard) + "_" +
               toString(info.param.memoryModel) + "_" +
               std::to_string(info.param.cores) + "c";
    });

class ConcurrentModes : public QuietTest
{
};

TEST_F(ConcurrentModes, ShardCountInvariance)
{
    // The sharded shadow memory must reach the same fingerprint under
    // concurrent delivery for any shard count.
    TempTrace tmp("shards");
    RunSpec rec = makeSpec(WorkloadKind::kOcean,
                           LifeguardKind::kTaintCheck, 4,
                           MemoryModel::kSC, 400, tmp.path());
    RunResult live = recordExperiment(rec);

    for (std::uint32_t shards : {1u, 4u}) {
        ReplayConfig cfg;
        cfg.path = tmp.path();
        cfg.shadowShards = shards;
        cfg.lgThreads = 4;
        ReplayPlatform rp(std::move(cfg));
        ASSERT_TRUE(rp.concurrent());
        RunResult result = rp.run();
        expectSameAnalysis(result, live);
    }
}

TEST_F(ConcurrentModes, ZeroAndOneThreadSelectTheSerialEngine)
{
    TempTrace tmp("serialsel");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                           2, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(rec);

    for (std::uint32_t threads : {0u, 1u}) {
        ReplayConfig cfg;
        cfg.path = tmp.path();
        cfg.lgThreads = threads;
        ReplayPlatform rp(std::move(cfg));
        EXPECT_FALSE(rp.concurrent());
        // The serial engine self-checks bit-identically (all timing
        // columns included) — run() panicking would fail the test.
        RunResult result = rp.run();
        EXPECT_NE(result.shadowFingerprint, 0u);
    }
}

TEST_F(ConcurrentModes, RepeatedConcurrentRunsAreStable)
{
    // Host-thread scheduling varies run to run; analysis results must
    // not. A handful of repeats under the most protocol-heavy cell
    // (TSO + ConflictAlerts + LockSet's read-side metadata writes).
    TempTrace tmp("stable");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kLockSet, 4,
                           MemoryModel::kTSO, 400, tmp.path());
    recordExperiment(rec);

    RunSpec replay = makeSpec(WorkloadKind::kLu, LifeguardKind::kLockSet,
                              4, MemoryModel::kTSO, 400, "", tmp.path());
    RunResult serial = replayExperiment(replay);
    for (int i = 0; i < 3; ++i) {
        RunSpec conc = replay;
        conc.opt.lgThreads = 4;
        RunResult result = replayExperiment(conc);
        expectSameAnalysis(result, serial);
    }
}

// --------------------------------------------- failure containment ----

class ConcurrentFailures : public QuietTest
{
};

TEST_F(ConcurrentFailures, ConsumerThreadPanicSurfacesOnOwningThread)
{
    // Fault point "lg.fail" injects a panic on the consumer thread that
    // owns the named lifeguard stream. The engine must capture it, abort
    // the other workers, join everything, and rethrow at the join point
    // on the cell-owning thread — where panic-throw scoping catches it.
    TempTrace tmp("faillg");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                           2, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(rec);

    RunSpec conc = makeSpec(WorkloadKind::kLu, LifeguardKind::kTaintCheck,
                            2, MemoryModel::kSC, 300, "", tmp.path());
    conc.opt.lgThreads = 2;

    ::setenv("PARALOG_FAULT", "lg.fail=1", 1);
    bool prev = setPanicThrows(true);
    try {
        EXPECT_THROW(
            { replayExperiment(conc); }, SimPanicError);
    } catch (...) {
    }
    setPanicThrows(prev);
    ::unsetenv("PARALOG_FAULT");

    // The injected failure must not wedge later runs: the same replay
    // without the injection still succeeds in this process.
    RunResult result = replayExperiment(conc);
    EXPECT_NE(result.shadowFingerprint, 0u);
}

TEST_F(ConcurrentFailures, FailedConcurrentCellIsContainedByRunMatrix)
{
    // runMatrix's panic-throw scope + the engine's capture-and-rethrow
    // at the join point: a cell whose worker thread panics comes back
    // `failed` with the message, and the remaining cells still run.
    TempTrace tmp("failcell");
    RunSpec rec = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                           2, MemoryModel::kSC, 300, tmp.path());
    recordExperiment(rec);

    std::vector<RunSpec> specs;
    for (int i = 0; i < 3; ++i) {
        RunSpec s = makeSpec(WorkloadKind::kLu, LifeguardKind::kAddrCheck,
                             2, MemoryModel::kSC, 300, "", tmp.path());
        s.opt.lgThreads = 2;
        specs.push_back(s);
    }

    ::setenv("PARALOG_FAULT", "lg.fail=0", 1);
    std::vector<CellResult> cells = runMatrix(specs, 1);
    ::unsetenv("PARALOG_FAULT");
    ASSERT_EQ(cells.size(), 3u);
    for (const CellResult &cell : cells) {
        EXPECT_TRUE(cell.failed);
        EXPECT_NE(cell.error.find("lg.fail"), std::string::npos)
            << cell.error;
    }

    // Fault point "cell.fail" composes with concurrent cells at
    // jobs > 1: only the named cell fails.
    ::setenv("PARALOG_FAULT", "cell.fail=1", 1);
    cells = runMatrix(specs, 2);
    ::unsetenv("PARALOG_FAULT");
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_FALSE(cells[0].failed) << cells[0].error;
    EXPECT_TRUE(cells[1].failed);
    EXPECT_FALSE(cells[2].failed) << cells[2].error;
}

} // namespace
} // namespace paralog
