/** @file Integration tests for the timesliced-monitoring baseline. */

#include <gtest/gtest.h>

#include "harness/paralog_test.hpp"
#include "lifeguard/taintcheck.hpp"

namespace paralog {
namespace {

class TimeslicedTest : public test::QuietTest
{
};

TEST_F(TimeslicedTest, CompletesAllThreads)
{
    RunResult r = runExperiment(WorkloadKind::kLu,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kTimesliced, 4, opts());
    EXPECT_GT(r.totalCycles, 0u);
    ASSERT_EQ(r.app.size(), 4u);
    for (const auto &a : r.app)
        EXPECT_GT(a.retired, 100u);
}

TEST_F(TimeslicedTest, SameAnalysisResultsAsParallel)
{
    PlatformConfig cfg =
        test::makeScaledConfig(WorkloadKind::kLu,
                               LifeguardKind::kTaintCheck,
                               MonitorMode::kTimesliced, 2);
    Timesliced ts(cfg);
    RunResult r = ts.run();
    EXPECT_EQ(r.violationCount, 0u);
    auto &taint = static_cast<TaintCheck &>(ts.lifeguard());
    EXPECT_TRUE(taint.isTainted(AddressLayout::kGlobalBase, 64));
}

TEST_F(TimeslicedTest, SlowerThanParallel)
{
    ExperimentOptions o = opts(20000);
    RunResult ts = runExperiment(WorkloadKind::kOcean,
                                 LifeguardKind::kTaintCheck,
                                 MonitorMode::kTimesliced, 4, o);
    RunResult par = runExperiment(WorkloadKind::kOcean,
                                  LifeguardKind::kTaintCheck,
                                  MonitorMode::kParallel, 4, o);
    EXPECT_GT(ts.totalCycles, par.totalCycles * 2);
}

TEST_F(TimeslicedTest, CostGrowsWithThreadCount)
{
    // Spin synchronization on one core makes timesliced execution grow
    // with the thread count even at constant total work (Figure 6).
    ExperimentOptions o = opts(20000);
    RunResult t1 = runExperiment(WorkloadKind::kOcean,
                                 LifeguardKind::kTaintCheck,
                                 MonitorMode::kTimesliced, 1, o);
    RunResult t8 = runExperiment(WorkloadKind::kOcean,
                                 LifeguardKind::kTaintCheck,
                                 MonitorMode::kTimesliced, 8, o);
    EXPECT_GT(t8.totalCycles, t1.totalCycles);
}

TEST_F(TimeslicedTest, BarrierWorkloadMakesProgress)
{
    // Barrier-heavy LU across 8 timesliced threads must not deadlock.
    RunResult r = runExperiment(WorkloadKind::kLu,
                                LifeguardKind::kAddrCheck,
                                MonitorMode::kTimesliced, 8, opts(4000));
    EXPECT_GT(r.totalCycles, 0u);
}

TEST_F(TimeslicedTest, LockWorkloadMakesProgress)
{
    RunResult r = runExperiment(WorkloadKind::kFluidanimate,
                                LifeguardKind::kAddrCheck,
                                MonitorMode::kTimesliced, 4, opts(4000));
    EXPECT_GT(r.totalCycles, 0u);
}

TEST_F(TimeslicedTest, MallocWorkloadCorrect)
{
    PlatformConfig cfg =
        test::makeScaledConfig(WorkloadKind::kSwaptions,
                               LifeguardKind::kAddrCheck,
                               MonitorMode::kTimesliced, 2);
    Timesliced ts(cfg);
    RunResult r = ts.run();
    EXPECT_EQ(r.violationCount, 0u);
}

TEST_F(TimeslicedTest, ReportedViolationsCarryAFingerprint)
{
    // Timesliced results come from the same assembly as live and replay
    // runs: reported violations come with their distinct-set
    // fingerprint. LockSet flags barnes' unlocked shared accesses.
    RunResult r = runExperiment(WorkloadKind::kBarnes,
                                LifeguardKind::kLockSet,
                                MonitorMode::kTimesliced, 2, opts());
    ASSERT_GT(r.violationCount, 0u);
    EXPECT_NE(r.violationFingerprint, 0u);
}

TEST_F(TimeslicedTest, Deterministic)
{
    RunResult a = runExperiment(WorkloadKind::kFmm,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kTimesliced, 2, opts());
    RunResult b = runExperiment(WorkloadKind::kFmm,
                                LifeguardKind::kTaintCheck,
                                MonitorMode::kTimesliced, 2, opts());
    EXPECT_EQ(a.totalCycles, b.totalCycles);
}

} // namespace
} // namespace paralog
