/**
 * @file
 * The benchmark's own tests: the tail-percentile rule, open-loop
 * due-time and lateness accounting, the worker pool's fixed dealing of
 * cells to threads, digest stability across runs and between traced
 * (one thread) and untraced (every core) runs, and a smoke run of every
 * workload.
 *
 * Run through `python3 perfbench/run.py --self-test` (which sets
 * PERFBENCH_REPO_ROOT and PERFBENCH_RUN_DIR), or directly from the
 * repository root.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <sys/stat.h>
#include <thread>

#include "bench.hpp"
#include "common/logging.hpp"
#include "util.hpp"

namespace perfbench {
namespace {

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

Options
smoke(const std::string &workload, bool trace = false)
{
    Options opt;
    opt.workload = workload;
    opt.seed = 3;
    opt.seconds = 0.5;
    opt.trace = trace;
    opt.smoke = true;
    opt.repoRoot = envOr("PERFBENCH_REPO_ROOT", ".");
    opt.runDir = envOr("PERFBENCH_RUN_DIR", ".bench_build/run");
    ::mkdir(opt.runDir.c_str(), 0755);
    return opt;
}

TEST(Percentile, TenSamplesBeyondRule)
{
    // p90 needs 100 samples for ten beyond it, p50 needs 20.
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_EQ(samplesBeyond(99, 90), 9u);
    EXPECT_EQ(samplesBeyond(20, 50), 10u);
    EXPECT_EQ(samplesBeyond(19, 50), 9u);
    EXPECT_EQ(samplesBeyond(0, 90), 0u);
    // The daemon's reference phase: 96 verdicts per round, so two
    // rounds already give p90 its ten.
    EXPECT_GE(samplesBeyond(2 * 96, 90), 10u);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 90), 90);
    EXPECT_EQ(percentile(v, 50), 50);
    EXPECT_EQ(percentile(v, 100), 100);
    EXPECT_EQ(median({3, 1, 2, 4}), 2.5);
    EXPECT_EQ(percentile({}, 90), 0);
}

TEST(OpenLoop, DueTimesIgnoreCompletions)
{
    OpenLoop loop(10.0, 4.0); // 4 requests/s from t = 10 s
    EXPECT_DOUBLE_EQ(loop.due(0), 10.0);
    EXPECT_DOUBLE_EQ(loop.due(3), 10.75);
    EXPECT_DOUBLE_EQ(loop.due(8), 12.0);
}

TEST(OpenLoop, LatenessCountsOnlyLateSends)
{
    OpenLoop loop(0.0, 10.0);
    loop.sent(0, 0.0);   // on time
    loop.sent(1, 0.35);  // due 0.1: 0.25 s late
    loop.sent(2, 0.15);  // early sends are not negative lateness
    ASSERT_EQ(loop.lateness().size(), 3u);
    EXPECT_DOUBLE_EQ(loop.lateness()[0], 0.0);
    EXPECT_NEAR(loop.lateness()[1], 0.25, 1e-12);
    EXPECT_DOUBLE_EQ(loop.lateness()[2], 0.0);
    // A request's latency is measured from its due time, so the 0.25 s
    // the generator lost is charged to request 1.
    const double verdict = 0.40;
    EXPECT_NEAR((verdict - loop.due(1)) * 1e3, 300.0, 1e-9);
}

TEST(Digest, OrderAndContentSensitive)
{
    Digest a, b, c;
    a.add(1);
    a.add(2);
    b.add(2);
    b.add(1);
    c.add(1);
    c.add(2);
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(a.value(), c.value());
    EXPECT_EQ(a.hex().size(), 16u);
}

TEST(WorkerPool, DealsItemsToFixedThreadsAndRethrows)
{
    const std::thread::id ran0 = std::this_thread::get_id();
    WorkerPool pool(3);
    ASSERT_EQ(pool.size(), 3u);
    for (int round = 0; round < 2; ++round) {
        std::vector<std::thread::id> ran(10);
        pool.run(ran.size(),
                 [&](std::size_t i) { ran[i] = std::this_thread::get_id(); });
        EXPECT_EQ(ran[0], ran0); // thread 0 is the caller
        for (std::size_t i = 0; i < ran.size(); ++i) {
            EXPECT_EQ(ran[i], ran[i % 3]) << i;
            for (std::size_t j = 0; j < i && i < 3; ++j)
                EXPECT_NE(ran[i], ran[j]) << i << " " << j;
        }
    }
    EXPECT_THROW(pool.run(5,
                          [](std::size_t i) {
                              if (i == 4)
                                  throw std::runtime_error("cell 4");
                          }),
                 std::runtime_error);
    std::atomic<int> calls{0}; // still usable after a throw
    pool.run(4, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 4);

    WorkerPool one(1); // no threads: everything on the caller
    one.run(2, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), ran0);
    });
}

TEST(Layers, FinalizeAveragesSumsAndDropsRawKeys)
{
    Layers raw = {{"capture.records", 15}, {"capture.attempts", 100},
                  {"mem.reads", 40}, {"raw.accel.events", 9}};
    Layers out = finalizeLayers(raw, 2);
    EXPECT_DOUBLE_EQ(out["capture.keep_ratio"], 0.15);
    EXPECT_DOUBLE_EQ(out["mem.reads"], 20); // per-round average
    EXPECT_EQ(out.count("raw.accel.events"), 0u);
    // No denominator: the ratio does not apply and is left out.
    EXPECT_EQ(out.count("core.lg_threads.gain_live"), 0u);
    EXPECT_EQ(out.count("accel.events_per_record"), 0u);
}

class Smoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Smoke, RunsCorrectWithEveryEndToEndMetric)
{
    Report rep = runBenchmark(smoke(GetParam()));
    for (const std::string &e : rep.errors)
        ADD_FAILURE() << e;
    EXPECT_TRUE(rep.correct);
    EXPECT_GT(rep.attempted, 0u);
    for (const char *m : {"setup_s", "throughput_per_s", "latency_ms_p50",
                          "latency_ms_p90", "success_ratio", "peak_rss_mb"}) {
        ASSERT_TRUE(rep.metrics.count(m)) << m;
        EXPECT_GT(rep.metrics[m], 0) << m;
    }
}

TEST_P(Smoke, DigestStableAcrossRunsAndTracing)
{
    Report a = runBenchmark(smoke(GetParam()));
    Report b = runBenchmark(smoke(GetParam(), true));
    EXPECT_TRUE(b.correct);
    EXPECT_EQ(a.digest, b.digest);
    EXPECT_EQ(b.digest, b.tracedDigest);
    for (const auto &[k, v] : b.metrics)
        EXPECT_NE(k.rfind("raw.", 0), 0u) << k;
    for (const char *m : {"fail_ratio", "tracing.overhead_ratio",
                          "tracing.spans", "latency.samples"})
        EXPECT_TRUE(b.metrics.count(m)) << m;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadEntry &e : workloads())
        names.push_back(e.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, Smoke,
                         ::testing::ValuesIn(workloadNames()));

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    paralog::setPanicThrows(true);
    paralog::setQuiet(true);
    return RUN_ALL_TESTS();
}
