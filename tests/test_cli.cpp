/**
 * @file
 * Tests for the `paralog` scenario-matrix CLI: flag parsing units
 * (args.cpp is linked in directly), in-process runMatrix() coverage of
 * the multi-threaded scenario runner (determinism across job counts,
 * in-order emission, failure containment — the suite ThreadSanitizer CI
 * exercises), plus end-to-end subprocess runs of the built driver
 * binary, located via the PARALOG_CLI environment variable that CMake
 * sets on this test.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "cli/args.hpp"
#include "common/logging.hpp"
#include "core/experiment.hpp"

namespace paralog::cli {
namespace {

ParseResult
parse(std::initializer_list<std::string_view> args)
{
    return parseArgs(std::vector<std::string_view>(args));
}

TEST(CliParse, DefaultsToSingleTaintcheckParallelRun)
{
    ParseResult r = parse({});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    auto scenarios = r.options.scenarios();
    ASSERT_EQ(scenarios.size(), 1u);
    EXPECT_EQ(scenarios[0].workload, WorkloadKind::kLu);
    EXPECT_EQ(scenarios[0].lifeguard, LifeguardKind::kTaintCheck);
    EXPECT_EQ(scenarios[0].mode, MonitorMode::kParallel);
    EXPECT_EQ(scenarios[0].cores, 4u);
    EXPECT_FALSE(r.options.csv);
}

TEST(CliParse, HelpShortCircuits)
{
    EXPECT_EQ(parse({"--help"}).status, ParseStatus::kHelp);
    EXPECT_EQ(parse({"-h"}).status, ParseStatus::kHelp);
    EXPECT_EQ(parse({"--workload=lu", "--help"}).status,
              ParseStatus::kHelp);
}

TEST(CliParse, UnknownFlagRejected)
{
    ParseResult r = parse({"--bogus=1"});
    ASSERT_EQ(r.status, ParseStatus::kError);
    EXPECT_NE(r.error.find("unknown flag"), std::string::npos);
    EXPECT_EQ(parse({"positional"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--csvv"}).status, ParseStatus::kError);
}

TEST(CliParse, ExistingFlagMisuseGetsSpecificError)
{
    // A valued flag without '=' must not claim the flag is unknown.
    ParseResult missing = parse({"--workload"});
    ASSERT_EQ(missing.status, ParseStatus::kError);
    EXPECT_NE(missing.error.find("requires a value"), std::string::npos);
    // A no-value flag with '=' likewise.
    ParseResult extra = parse({"--csv=on"});
    ASSERT_EQ(extra.status, ParseStatus::kError);
    EXPECT_NE(extra.error.find("takes no value"), std::string::npos);
}

TEST(CliParse, ValueParsers)
{
    WorkloadKind w;
    EXPECT_TRUE(parseWorkload("ocean", w));
    EXPECT_EQ(w, WorkloadKind::kOcean);
    EXPECT_FALSE(parseWorkload("OCEAN", w));
    EXPECT_FALSE(parseWorkload("", w));

    LifeguardKind lg;
    EXPECT_TRUE(parseLifeguard("lockset", lg));
    EXPECT_EQ(lg, LifeguardKind::kLockSet);
    EXPECT_FALSE(parseLifeguard("valgrind", lg));

    MonitorMode m;
    EXPECT_TRUE(parseMode("none", m));
    EXPECT_EQ(m, MonitorMode::kNoMonitoring);
    EXPECT_TRUE(parseMode("timesliced", m));
    EXPECT_EQ(m, MonitorMode::kTimesliced);

    bool b;
    EXPECT_TRUE(parseBool("on", b));
    EXPECT_TRUE(b);
    EXPECT_TRUE(parseBool("0", b));
    EXPECT_FALSE(b);
    EXPECT_FALSE(parseBool("maybe", b));
}

TEST(CliParse, CommaListsAndAll)
{
    ParseResult r = parse({"--workload=lu,ocean", "--lifeguard=all",
                           "--mode=none,parallel", "--cores=1,2,4,8"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    EXPECT_EQ(r.options.workloads.size(), 2u);
    EXPECT_EQ(r.options.lifeguards.size(), 4u);
    EXPECT_EQ(r.options.modes.size(), 2u);
    EXPECT_EQ(r.options.cores.size(), 4u);
    // Full cross product for parallel (2 * 4 * 4 = 32), but the
    // no-monitoring baseline runs once per (workload, cores), not once
    // per lifeguard: + 2 * 4 = 8.
    EXPECT_EQ(r.options.scenarios().size(), 40u);

    // Duplicates collapse.
    ParseResult dup = parse({"--workload=lu,lu,lu"});
    ASSERT_EQ(dup.status, ParseStatus::kOk);
    EXPECT_EQ(dup.options.workloads.size(), 1u);
}

TEST(CliParse, NoMonitoringScenariosNotRepeatedPerLifeguard)
{
    ParseResult r = parse({"--lifeguard=all", "--mode=none"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    // One baseline run, not four identical ones.
    EXPECT_EQ(r.options.scenarios().size(), 1u);
}

TEST(CliParse, BadListValuesRejected)
{
    EXPECT_EQ(parse({"--workload=lu,bogus"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--workload="}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--workload=lu,"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--cores=0"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--cores=17"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--cores=two"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--scale=0"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--scale=-5"}).status, ParseStatus::kError);
}

TEST(CliParse, PlatformKnobs)
{
    ParseResult r = parse({"--accel=off", "--dep-tracking=per-core",
                           "--memory-model=tso", "--conflict-alerts=off",
                           "--scale=1234", "--seed=7",
                           "--log-buffer=4096", "--csv"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    ExperimentOptions o = r.options.experimentOptions();
    EXPECT_FALSE(o.accelerators);
    EXPECT_EQ(o.depTracking, DepTracking::kPerCore);
    EXPECT_EQ(o.memoryModel, MemoryModel::kTSO);
    EXPECT_FALSE(o.conflictAlerts);
    EXPECT_EQ(o.scale, 1234u);
    EXPECT_EQ(o.seed, 7u);
    EXPECT_EQ(o.logBufferBytes, 4096u);
    EXPECT_TRUE(r.options.csv);
}

TEST(CliParse, TimeslicedTsoComboRejected)
{
    ParseResult r =
        parse({"--mode=timesliced", "--memory-model=tso"});
    ASSERT_EQ(r.status, ParseStatus::kError);
    EXPECT_NE(r.error.find("incompatible"), std::string::npos);
    // ... even when timesliced arrives via a list or `all`.
    EXPECT_EQ(parse({"--mode=all", "--memory-model=tso"}).status,
              ParseStatus::kError);
    // Parallel TSO stays legal.
    EXPECT_EQ(parse({"--mode=parallel", "--memory-model=tso"}).status,
              ParseStatus::kOk);
}

TEST(CliParse, SeedListSweeps)
{
    ParseResult r = parse({"--seed=3,5,7"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    EXPECT_EQ(r.options.seeds, (std::vector<std::uint64_t>{3, 5, 7}));
    EXPECT_TRUE(r.options.sweepColumns());
    // First seed backs the shared ExperimentOptions.
    EXPECT_EQ(r.options.experimentOptions().seed, 3u);

    // Duplicates collapse; a scalar seed keeps the legacy schema.
    ParseResult dup = parse({"--seed=5,5,5"});
    ASSERT_EQ(dup.status, ParseStatus::kOk);
    EXPECT_EQ(dup.options.seeds.size(), 1u);
    EXPECT_FALSE(dup.options.sweepColumns());

    EXPECT_EQ(parse({"--seed="}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--seed=1,x"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--seed=all"}).status, ParseStatus::kError);
}

TEST(CliParse, MatrixExecutionFlags)
{
    ParseResult r = parse({"--jobs=4", "--repeat=3", "--shadow-shards=8",
                           "--max-cycles=123456"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    EXPECT_EQ(r.options.jobs, 4u);
    EXPECT_EQ(r.options.repeat, 3u);
    EXPECT_EQ(r.options.shadowShards, 8u);
    EXPECT_EQ(r.options.maxCycles, 123456u);
    EXPECT_TRUE(r.options.sweepColumns()); // repeat > 1
    ExperimentOptions o = r.options.experimentOptions();
    EXPECT_EQ(o.shadowShards, 8u);
    EXPECT_EQ(o.maxCycles, 123456u);

    EXPECT_EQ(parse({"--jobs=0"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--jobs=65"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--repeat=0"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--shadow-shards=3"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--shadow-shards=512"}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--max-cycles=0"}).status, ParseStatus::kError);
    // 0 = auto is legal for shards.
    EXPECT_EQ(parse({"--shadow-shards=0"}).status, ParseStatus::kOk);
}

TEST(CliParse, CsvAndJsonAreMutuallyExclusive)
{
    EXPECT_EQ(parse({"--json"}).status, ParseStatus::kOk);
    ParseResult r = parse({"--csv", "--json"});
    ASSERT_EQ(r.status, ParseStatus::kError);
    EXPECT_NE(r.error.find("mutually exclusive"), std::string::npos);
}

TEST(CliParse, RecordFlagRequiresASingleParallelCell)
{
    ParseResult r = parse({"--record=/tmp/x.trace"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    EXPECT_EQ(r.options.recordPath, "/tmp/x.trace");
    ASSERT_EQ(r.options.runSpecs().size(), 1u);
    EXPECT_EQ(r.options.runSpecs()[0].recordPath, "/tmp/x.trace");

    EXPECT_EQ(parse({"--record="}).status, ParseStatus::kError);
    EXPECT_EQ(parse({"--record=/tmp/x", "--mode=none"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--record=/tmp/x", "--mode=timesliced"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--record=/tmp/x", "--cores=1,2"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--record=/tmp/x", "--workload=all"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--record=/tmp/x", "--seed=1,2"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--record=/tmp/x", "--repeat=2"}).status,
              ParseStatus::kError);
    // A fully-pinned single cell is fine, TSO included.
    EXPECT_EQ(parse({"--record=/tmp/x", "--workload=ocean", "--cores=8",
                     "--memory-model=tso", "--seed=9"})
                  .status,
              ParseStatus::kOk);
}

TEST(CliParse, ReplayTakesAxesFromTheRecording)
{
    ParseResult r = parse({"--replay=/tmp/x.trace"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    EXPECT_EQ(r.options.replayPath, "/tmp/x.trace");

    // Only the lifeguard (and output/execution flags) may combine.
    EXPECT_EQ(parse({"--replay=/tmp/x", "--lifeguard=all"}).status,
              ParseStatus::kOk);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--jobs=4", "--repeat=2",
                     "--json", "--shadow-shards=8"})
                  .status,
              ParseStatus::kOk);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--workload=lu"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--cores=2"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--seed=2"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--memory-model=tso"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--scale=100"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--record=/tmp/y"}).status,
              ParseStatus::kError);
}

TEST(CliParse, LgThreadsAppliesLiveAndReplay)
{
    // --lg-threads selects the host threading of the lifeguard cores,
    // live or replay, and flows through to the run specs.
    ParseResult r = parse({"--replay=/tmp/x.trace", "--lg-threads=4"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    EXPECT_EQ(r.options.lgThreads, 4u);
    ASSERT_EQ(r.options.runSpecs().size(), 1u);
    EXPECT_EQ(r.options.runSpecs()[0].opt.lgThreads, 4u);

    // 0/1 explicitly select the serial engine.
    EXPECT_EQ(parse({"--replay=/tmp/x", "--lg-threads=0"}).status,
              ParseStatus::kOk);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--lg-threads=1"}).status,
              ParseStatus::kOk);

    // Live runs use the live host-parallel engine.
    ParseResult live = parse({"--lg-threads=2"});
    ASSERT_EQ(live.status, ParseStatus::kOk);
    ASSERT_EQ(live.options.runSpecs().size(), 1u);
    EXPECT_EQ(live.options.runSpecs()[0].opt.lgThreads, 2u);

    // --record composes: the journal carries the live-parallel header
    // bit and replays result-exact through the concurrent engine.
    ParseResult rec =
        parse({"--record=/tmp/x.trace", "--lg-threads=2"});
    ASSERT_EQ(rec.status, ParseStatus::kOk);
    EXPECT_EQ(rec.options.runSpecs()[0].opt.lgThreads, 2u);
    EXPECT_EQ(parse({"--record=/tmp/x", "--lg-threads=0"}).status,
              ParseStatus::kOk);

    // The one hard conflict: the concurrent engines rely on the
    // ConflictAlert barriers for cross-stream ordering.
    ParseResult noca =
        parse({"--lg-threads=2", "--conflict-alerts=off"});
    EXPECT_EQ(noca.status, ParseStatus::kError);
    EXPECT_NE(noca.error.find("--conflict-alerts"), std::string::npos);
    EXPECT_EQ(
        parse({"--lg-threads=1", "--conflict-alerts=off"}).status,
        ParseStatus::kOk);

    // Value validation.
    EXPECT_EQ(parse({"--replay=/tmp/x", "--lg-threads=nope"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--lg-threads=9999"}).status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--replay=/tmp/x", "--lg-threads"}).status,
              ParseStatus::kError);
}

TEST(CliParse, RunSpecsExpandScenariosSeedsRepeats)
{
    ParseResult r = parse({"--workload=lu,ocean", "--cores=1,2",
                           "--seed=1,2,3", "--repeat=2"});
    ASSERT_EQ(r.status, ParseStatus::kOk);
    // 2 workloads x 2 cores = 4 scenarios, x 3 seeds x 2 repeats.
    auto specs = r.options.runSpecs();
    ASSERT_EQ(specs.size(), 24u);
    // Consecutive groups of `repeat` specs share scenario and seed (the
    // output-cell grouping contract).
    for (std::size_t i = 0; i < specs.size(); i += 2) {
        EXPECT_EQ(specs[i].workload, specs[i + 1].workload);
        EXPECT_EQ(specs[i].cores, specs[i + 1].cores);
        EXPECT_EQ(specs[i].opt.seed, specs[i + 1].opt.seed);
    }
    // Seeds vary fastest (per scenario), in flag order.
    EXPECT_EQ(specs[0].opt.seed, 1u);
    EXPECT_EQ(specs[2].opt.seed, 2u);
    EXPECT_EQ(specs[4].opt.seed, 3u);
    EXPECT_EQ(specs[6].opt.seed, 1u);
}

TEST(CliParse, LockSetTsoComboAccepted)
{
    // The versioning protocol now orders read-side metadata writers,
    // so the historical lockset+tso refusal is gone: the full
    // lifeguard x memory-model matrix parses.
    EXPECT_EQ(parse({"--lifeguard=lockset", "--memory-model=tso"}).status,
              ParseStatus::kOk);
    EXPECT_EQ(parse({"--lifeguard=all", "--memory-model=tso"}).status,
              ParseStatus::kOk);
    EXPECT_EQ(parse({"--lifeguard=lockset", "--memory-model=sc"}).status,
              ParseStatus::kOk);
}

TEST(CliParse, SubmitNeedsSocketAndViceVersa)
{
    ParseResult ok = parse({"--submit=/tmp/x.trace",
                            "--socket=/tmp/paralogd.sock"});
    ASSERT_EQ(ok.status, ParseStatus::kOk);
    EXPECT_EQ(ok.options.submitPath, "/tmp/x.trace");
    EXPECT_EQ(ok.options.socketPath, "/tmp/paralogd.sock");
    EXPECT_FALSE(ok.options.daemonStats);

    ParseResult no_sock = parse({"--submit=/tmp/x.trace"});
    ASSERT_EQ(no_sock.status, ParseStatus::kError);
    EXPECT_NE(no_sock.error.find("need --socket"), std::string::npos);

    ParseResult sock_alone = parse({"--socket=/tmp/paralogd.sock"});
    ASSERT_EQ(sock_alone.status, ParseStatus::kError);
    EXPECT_NE(sock_alone.error.find("--socket does nothing"),
              std::string::npos);
}

TEST(CliParse, DaemonStatsParsesAndExcludesSubmit)
{
    ParseResult ok =
        parse({"--daemon-stats", "--socket=/tmp/paralogd.sock"});
    ASSERT_EQ(ok.status, ParseStatus::kOk);
    EXPECT_TRUE(ok.options.daemonStats);
    EXPECT_EQ(ok.options.socketPath, "/tmp/paralogd.sock");

    EXPECT_EQ(parse({"--daemon-stats"}).status, ParseStatus::kError);

    ParseResult both = parse({"--submit=/tmp/x.trace", "--daemon-stats",
                              "--socket=/tmp/paralogd.sock"});
    ASSERT_EQ(both.status, ParseStatus::kError);
    EXPECT_NE(both.error.find("mutually exclusive"), std::string::npos);
}

TEST(CliParse, SubmitExcludesLocalRecordReplayAndMatrixAxes)
{
    // The daemon does the re-monitoring; local record/replay flags and
    // matrix axes contradict that. Only --lifeguard may ride along.
    ParseResult rec = parse({"--submit=/tmp/x.trace", "--socket=/tmp/s",
                             "--record=/tmp/y.trace"});
    ASSERT_EQ(rec.status, ParseStatus::kError);
    EXPECT_NE(rec.error.find("mutually exclusive with --record"),
              std::string::npos);
    EXPECT_EQ(parse({"--submit=/tmp/x.trace", "--socket=/tmp/s",
                     "--replay=/tmp/y.trace"})
                  .status,
              ParseStatus::kError);

    ParseResult axis = parse({"--submit=/tmp/x.trace", "--socket=/tmp/s",
                              "--workload=ocean"});
    ASSERT_EQ(axis.status, ParseStatus::kError);
    EXPECT_NE(axis.error.find("only --lifeguard"), std::string::npos);
    EXPECT_EQ(parse({"--submit=/tmp/x.trace", "--socket=/tmp/s",
                     "--cores=2"})
                  .status,
              ParseStatus::kError);
    EXPECT_EQ(parse({"--submit=/tmp/x.trace", "--socket=/tmp/s",
                     "--scale=1000"})
                  .status,
              ParseStatus::kError);

    ParseResult lg = parse({"--submit=/tmp/x.trace", "--socket=/tmp/s",
                            "--lifeguard=addrcheck,lockset"});
    ASSERT_EQ(lg.status, ParseStatus::kOk);
    ASSERT_EQ(lg.options.lifeguards.size(), 2u);
    EXPECT_EQ(lg.options.lifeguards[0], LifeguardKind::kAddrCheck);
}

// ------------------------------------------- in-process matrix runner

/** Small deterministic spec list covering distinct scenarios. */
std::vector<RunSpec>
smallSpecs(std::uint32_t repeat = 1)
{
    ParseResult r = parse({"--workload=lu,swaptions", "--cores=1,2",
                           "--scale=600",
                           "--repeat=" + std::to_string(repeat)});
    EXPECT_EQ(r.status, ParseStatus::kOk);
    return r.options.runSpecs();
}

TEST(RunMatrix, JobCountDoesNotChangeResults)
{
    setQuiet(true);
    std::vector<RunSpec> specs = smallSpecs();
    std::vector<CellResult> seq = runMatrix(specs, 1);
    std::vector<CellResult> par = runMatrix(specs, 4);
    ASSERT_EQ(seq.size(), specs.size());
    ASSERT_EQ(par.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ASSERT_FALSE(seq[i].failed) << seq[i].error;
        ASSERT_FALSE(par[i].failed) << par[i].error;
        EXPECT_EQ(seq[i].result.totalCycles, par[i].result.totalCycles);
        EXPECT_EQ(seq[i].result.retiredTotal(),
                  par[i].result.retiredTotal());
        EXPECT_EQ(seq[i].result.eventsHandledTotal(),
                  par[i].result.eventsHandledTotal());
        EXPECT_EQ(seq[i].result.violationCount,
                  par[i].result.violationCount);
    }
}

TEST(RunMatrix, EmitsCellsInSpecOrder)
{
    setQuiet(true);
    std::vector<RunSpec> specs = smallSpecs(2);
    std::vector<std::size_t> emitted;
    runMatrix(specs, 4, [&](std::size_t i, const CellResult &cell) {
        EXPECT_FALSE(cell.failed);
        emitted.push_back(i);
    });
    ASSERT_EQ(emitted.size(), specs.size());
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
}

TEST(RunMatrix, InjectedFailureIsContainedToItsCell)
{
    setQuiet(true);
    std::vector<RunSpec> specs = smallSpecs();
    ASSERT_GE(specs.size(), 3u);
    setenv("PARALOG_FAULT", "cell.fail=1", 1);
    std::vector<CellResult> res = runMatrix(specs, 2);
    unsetenv("PARALOG_FAULT");

    ASSERT_EQ(res.size(), specs.size());
    EXPECT_FALSE(res[0].failed);
    ASSERT_TRUE(res[1].failed);
    EXPECT_NE(res[1].error.find("injected failure"), std::string::npos);
    for (std::size_t i = 2; i < res.size(); ++i)
        EXPECT_FALSE(res[i].failed) << res[i].error;

    // Panic-throw mode was restored: panics abort again by default.
    EXPECT_FALSE(setPanicThrows(false));
}

TEST(RunMatrix, RealPanicIsContainedToItsCell)
{
    setQuiet(true);
    std::vector<RunSpec> specs = smallSpecs();
    // Rig cell 0 to trip the simulated-time watchdog almost instantly.
    specs[0].opt.maxCycles = 50;
    std::vector<CellResult> res = runMatrix(specs, 2);
    ASSERT_TRUE(res[0].failed);
    EXPECT_NE(res[0].error.find("watchdog"), std::string::npos);
    for (std::size_t i = 1; i < res.size(); ++i)
        EXPECT_FALSE(res[i].failed) << res[i].error;
    EXPECT_FALSE(setPanicThrows(false));
}

TEST(RunMatrix, PreCancelledMatrixSkipsEveryCell)
{
    setQuiet(true);
    std::vector<RunSpec> specs = smallSpecs();
    std::atomic<bool> cancel{true};
    std::vector<std::size_t> emitted;
    std::vector<CellResult> res = runMatrix(
        specs, 2,
        [&](std::size_t i, const CellResult &) { emitted.push_back(i); },
        &cancel);
    ASSERT_EQ(res.size(), specs.size());
    for (const CellResult &cell : res) {
        EXPECT_TRUE(cell.skipped);
        EXPECT_FALSE(cell.failed);
    }
    // Skipped cells still stream in order — partial output depends on it.
    ASSERT_EQ(emitted.size(), specs.size());
    for (std::size_t i = 0; i < emitted.size(); ++i)
        EXPECT_EQ(emitted[i], i);
}

TEST(RunMatrix, MidRunCancelSkipsTheTailOnly)
{
    setQuiet(true);
    std::vector<RunSpec> specs = smallSpecs(2);
    std::atomic<bool> cancel{false};
    // Cancel from inside the first emission, as a SIGINT would
    // mid-matrix: already-finished cells keep their results, the tail
    // comes back skipped.
    std::vector<CellResult> res = runMatrix(
        specs, 1,
        [&](std::size_t, const CellResult &) { cancel.store(true); },
        &cancel);
    ASSERT_EQ(res.size(), specs.size());
    EXPECT_FALSE(res.front().skipped);
    EXPECT_FALSE(res.front().failed);
    EXPECT_TRUE(res.back().skipped);
    std::size_t skipped = 0;
    for (const CellResult &cell : res)
        skipped += cell.skipped ? 1 : 0;
    EXPECT_GE(skipped, 1u);
    EXPECT_LT(skipped, specs.size());
}

// ------------------------------------------------------- end-to-end runs

/** Run the built driver; returns its exit code, fills @p output.
 *  @p env_prefix, when set, is prepended to the shell command
 *  (e.g. "PARALOG_FAULT=cell.fail=0"). */
int
runCli(const std::string &flags, std::string &output,
       const std::string &env_prefix = "")
{
    const char *bin = std::getenv("PARALOG_CLI");
    if (!bin) {
        ADD_FAILURE() << "PARALOG_CLI not set";
        return -1;
    }
    std::string cmd = (env_prefix.empty() ? "" : env_prefix + " ") + "'" +
                      std::string(bin) + "' " + flags + " 2>&1";
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "popen failed for: " << cmd;
        return -1;
    }
    output.clear();
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        output.append(buf, n);
    int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class CliEndToEnd : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!std::getenv("PARALOG_CLI"))
            GTEST_SKIP() << "PARALOG_CLI not set (run under CTest)";
    }
};

TEST_F(CliEndToEnd, CsvRunPrintsHeaderAndRow)
{
    std::string out;
    int rc = runCli("--workload=lu --lifeguard=taintcheck "
                    "--mode=parallel --cores=2 --scale=3000 --csv",
                    out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("workload,lifeguard,mode,cores"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("violations,versions_produced,versions_consumed,"
                       "version_stalls"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("lu,taintcheck,parallel,2,on,per-block,sc,3000"),
              std::string::npos)
        << out;
}

TEST_F(CliEndToEnd, LockSetTsoRunsToCompletion)
{
    // End-to-end proof of the lifted gate: the once-deadlocking
    // combination completes through the driver in well under the test
    // timeout, and reports its versioning-protocol counters.
    std::string out;
    int rc = runCli("--workload=lu --lifeguard=lockset --mode=parallel "
                    "--memory-model=tso --cores=4 --scale=400",
                    out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("total cycles"), std::string::npos) << out;
    EXPECT_NE(out.find("versions:"), std::string::npos) << out;
}

TEST_F(CliEndToEnd, TextRunPrintsStats)
{
    std::string out;
    int rc = runCli("--workload=blackscholes --mode=none --cores=1 "
                    "--scale=3000",
                    out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("total cycles"), std::string::npos) << out;
    EXPECT_NE(out.find("blackscholes"), std::string::npos) << out;
}

TEST_F(CliEndToEnd, HelpExitsZeroWithUsage)
{
    std::string out;
    EXPECT_EQ(runCli("--help", out), 0);
    EXPECT_NE(out.find("Usage: paralog"), std::string::npos);
}

TEST_F(CliEndToEnd, InvalidFlagExitsNonZeroWithUsage)
{
    std::string out;
    int rc = runCli("--workload=nosuchbench", out);
    EXPECT_EQ(rc, 2) << out;
    EXPECT_NE(out.find("Usage: paralog"), std::string::npos) << out;
}

TEST_F(CliEndToEnd, InvalidComboExitsNonZeroWithUsage)
{
    std::string out;
    int rc = runCli("--mode=timesliced --memory-model=tso", out);
    EXPECT_EQ(rc, 2) << out;
    EXPECT_NE(out.find("incompatible"), std::string::npos) << out;
}

TEST_F(CliEndToEnd, LiveLgThreadsRunsAndComposesWithRecord)
{
    // The lifted flag contract, end to end: --lg-threads now drives the
    // live host-parallel engine, and composes with --record — the
    // recording replays result-exact (footer self-check, so a zero
    // replay exit is the equivalence proof at this level).
    std::string trace_path = ::testing::TempDir() +
                             "paralog_cli_liverec_" +
                             std::to_string(::getpid()) + ".trace";
    std::string out;
    int rc = runCli("--workload=lu --lifeguard=taintcheck "
                    "--mode=parallel --cores=4 --scale=400 "
                    "--lg-threads=2 --record=" +
                        trace_path,
                    out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("total cycles"), std::string::npos) << out;

    rc = runCli("--replay=" + trace_path, out);
    EXPECT_EQ(rc, 0) << out;
    std::remove(trace_path.c_str());

    // The one remaining hard conflict: the concurrent engines need the
    // ConflictAlert barriers.
    rc = runCli("--lg-threads=2 --conflict-alerts=off", out);
    EXPECT_EQ(rc, 2) << out;
    EXPECT_NE(out.find("--conflict-alerts"), std::string::npos) << out;
}

TEST_F(CliEndToEnd, ReplayWithLgThreadsRunsConcurrently)
{
    // Record through the driver, replay concurrently through the
    // driver. The concurrent engine self-checks its analysis results
    // against the recorded footer and panics on divergence, so a zero
    // exit *is* the serial-equivalence proof at this level.
    std::string trace_path = ::testing::TempDir() + "paralog_cli_lg_" +
                             std::to_string(::getpid()) + ".trace";
    std::string out;
    int rc = runCli("--workload=lu --lifeguard=taintcheck "
                    "--mode=parallel --cores=4 --scale=400 --record=" +
                        trace_path,
                    out);
    ASSERT_EQ(rc, 0) << out;

    rc = runCli("--replay=" + trace_path + " --lg-threads=4", out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("total cycles"), std::string::npos) << out;

    // Serial selection via the same flag (0 = serial engine).
    rc = runCli("--replay=" + trace_path + " --lg-threads=0", out);
    EXPECT_EQ(rc, 0) << out;
    std::remove(trace_path.c_str());
}

// -------------------------------------- matrix features, end to end

/** Occurrences of @p needle in @p text. */
std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + needle.size()))
        ++n;
    return n;
}

/** Split @p text into lines. */
std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        lines.push_back(text.substr(pos, nl - pos));
        pos = nl + 1;
    }
    return lines;
}

/** The comma-separated fields of the first CSV data row whose line
 *  starts with @p prefix. */
std::vector<std::string>
csvRow(const std::string &out, const std::string &prefix)
{
    for (const std::string &line : splitLines(out)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        std::vector<std::string> fields;
        std::size_t pos = 0;
        while (pos <= line.size()) {
            std::size_t comma = line.find(',', pos);
            if (comma == std::string::npos)
                comma = line.size();
            fields.push_back(line.substr(pos, comma - pos));
            pos = comma + 1;
        }
        return fields;
    }
    return {};
}

/** Value of `"name": {"min": a, "median": b, "max": c}` in @p json
 *  (the median), or "" when absent. Also checks min == max == median:
 *  deterministic repeats must collapse. */
std::string
jsonMedian(const std::string &json, const std::string &name)
{
    std::size_t at = json.find("\"" + name + "\": {\"min\": ");
    if (at == std::string::npos)
        return "";
    std::size_t min_at = json.find("\"min\": ", at) + 7;
    std::size_t med_at = json.find("\"median\": ", at) + 10;
    std::size_t max_at = json.find("\"max\": ", at) + 7;
    auto num = [&](std::size_t p) {
        std::size_t end = json.find_first_of(",}", p);
        return json.substr(p, end - p);
    };
    EXPECT_EQ(num(min_at), num(med_at)) << name;
    EXPECT_EQ(num(max_at), num(med_at)) << name;
    return num(med_at);
}

/** Strip host-dependent lines (wall clock, job count) so outputs of
 *  different --jobs runs are comparable. */
std::string
stripHostLines(const std::string &out)
{
    std::string kept;
    for (const std::string &line : splitLines(out)) {
        if (line.find("wall_ms") != std::string::npos ||
            line.find("\"jobs\":") != std::string::npos)
            continue;
        kept += line;
        kept += '\n';
    }
    return kept;
}

TEST_F(CliEndToEnd, JsonRoundTripsAgainstCsv)
{
    const std::string flags = "--workload=lu --lifeguard=addrcheck "
                              "--mode=parallel --cores=2 --scale=2000";
    std::string json, csv;
    ASSERT_EQ(runCli(flags + " --json", json), 0) << json;
    ASSERT_EQ(runCli(flags + " --csv", csv), 0) << csv;

    // Structural sanity: one cell, ok, balanced output.
    EXPECT_NE(json.find("\"schema\": \"paralog-matrix-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(json.find("\"cells_failed\": 0"), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));

    // Value round-trip: every CSV stat column equals the JSON median.
    std::vector<std::string> header = csvRow(csv, "workload,");
    std::vector<std::string> row = csvRow(csv, "lu,addrcheck,");
    ASSERT_EQ(header.size(), 20u) << csv;
    ASSERT_EQ(row.size(), header.size()) << csv;
    for (std::size_t col = 8; col < header.size(); ++col) {
        EXPECT_EQ(jsonMedian(json, header[col]), row[col])
            << header[col];
    }
}

TEST_F(CliEndToEnd, SeedSweepCellsAreIndependentDeterministic)
{
    // swaptions consumes the seed, so cells differ across seeds — and
    // the seed=7 cell of a sweep must be identical to a solo seed=7
    // run (cells share nothing).
    const std::string base = "--workload=swaptions --cores=2 "
                             "--scale=1500 --csv";
    std::string solo, sweep;
    ASSERT_EQ(runCli(base + " --seed=7", solo), 0) << solo;
    ASSERT_EQ(runCli(base + " --seed=3,7", sweep), 0) << sweep;

    std::vector<std::string> solo_row = csvRow(solo, "swaptions,");
    ASSERT_EQ(solo_row.size(), 20u) << solo;

    // Sweep rows carry trailing seed,repeats columns; find seed 7.
    std::vector<std::string> sweep_lines;
    for (const std::string &line : splitLines(sweep)) {
        if (line.rfind("swaptions,", 0) == 0)
            sweep_lines.push_back(line);
    }
    ASSERT_EQ(sweep_lines.size(), 2u) << sweep;
    EXPECT_NE(sweep_lines[0], sweep_lines[1]) << "seed ignored?";
    bool found = false;
    for (const std::string &line : sweep_lines) {
        std::vector<std::string> f = csvRow(line + "\n", "swaptions,");
        ASSERT_EQ(f.size(), 22u) << line;
        if (f[20] != "7")
            continue;
        found = true;
        EXPECT_EQ(f[21], "1"); // one repeat
        for (std::size_t col = 0; col < 20; ++col)
            EXPECT_EQ(f[col], solo_row[col]) << "col " << col;
    }
    EXPECT_TRUE(found) << sweep;
}

TEST_F(CliEndToEnd, RepeatAggregationIsJobCountInvariant)
{
    const std::string flags = "--workload=lu,swaptions --cores=1,2 "
                              "--scale=1000 --seed=1,2 --repeat=3 "
                              "--json";
    std::string seq, par;
    ASSERT_EQ(runCli(flags + " --jobs=1", seq), 0) << seq;
    ASSERT_EQ(runCli(flags + " --jobs=4", par), 0) << par;
    EXPECT_EQ(stripHostLines(seq), stripHostLines(par));
    EXPECT_NE(seq.find("\"repeats\": 3"), std::string::npos);
}

TEST_F(CliEndToEnd, FailedCellIsMarkedAndExitCodeNonzero)
{
    // Injected failure in cell 0 of a 2-cell matrix: the failed cell
    // is marked, the healthy cell still reports, and the driver exits
    // 1 (regression: it used to exit 0 no matter what).
    const std::string flags = "--workload=lu --mode=none,parallel "
                              "--cores=1 --scale=1000";
    std::string csv;
    EXPECT_EQ(runCli(flags + " --csv", csv, "PARALOG_FAULT=cell.fail=0"), 1)
        << csv;
    EXPECT_NE(csv.find("\"failed: injected failure"), std::string::npos)
        << csv;
    EXPECT_NE(csv.find("lu,taintcheck,parallel,1,"), std::string::npos)
        << csv;

    std::string text;
    EXPECT_EQ(runCli(flags, text, "PARALOG_FAULT=cell.fail=0"), 1) << text;
    EXPECT_NE(text.find("FAILED: injected failure"), std::string::npos)
        << text;
    EXPECT_NE(text.find("total cycles"), std::string::npos)
        << "healthy cell missing: " << text;

    std::string json;
    EXPECT_EQ(runCli(flags + " --json", json, "PARALOG_FAULT=cell.fail=1"), 1)
        << json;
    EXPECT_NE(json.find("\"status\": \"failed\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"cells_failed\": 1"), std::string::npos)
        << json;
}

TEST_F(CliEndToEnd, RealPanicMidMatrixExitsNonzero)
{
    // A genuine simulator panic (simulated-time watchdog) — not just
    // the injection hook — must also be contained and propagated.
    std::string out;
    int rc = runCli("--workload=lu --cores=2 --scale=50000 "
                    "--max-cycles=5000",
                    out);
    EXPECT_EQ(rc, 1) << out;
    EXPECT_NE(out.find("FAILED: simulation watchdog"), std::string::npos)
        << out;
}

// ------------------------------------------------- record / replay

/** Self-deleting temp trace path for subprocess runs. */
class CliTraceFile
{
  public:
    explicit CliTraceFile(const char *tag)
        : path_("/tmp/paralog_cli_" + std::string(tag) + "_" +
                std::to_string(::getpid()) + ".trace")
    {
    }
    ~CliTraceFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

TEST_F(CliEndToEnd, RecordReplayRoundTripIsJobCountInvariant)
{
    // Record one cell, replay it under all four lifeguards at --jobs=1
    // and --jobs=4: the JSON documents must be byte-identical modulo
    // the host-side wall_ms/jobs lines — including the per-cell shadow
    // fingerprints — and the recorded-lifeguard cell is additionally
    // self-checked bit-identical inside the driver.
    CliTraceFile trace("roundtrip");
    std::string rec;
    ASSERT_EQ(runCli("--workload=lu --lifeguard=taintcheck --cores=2 "
                     "--scale=800 --record=" +
                         trace.path(),
                     rec),
              0)
        << rec;
    EXPECT_NE(rec.find("shadow fingerprint"), std::string::npos) << rec;

    const std::string flags =
        "--replay=" + trace.path() + " --lifeguard=all --json";
    std::string seq, par;
    ASSERT_EQ(runCli(flags + " --jobs=1", seq), 0) << seq;
    ASSERT_EQ(runCli(flags + " --jobs=4", par), 0) << par;
    EXPECT_EQ(stripHostLines(seq), stripHostLines(par));
    EXPECT_EQ(std::count(seq.begin(), seq.end(), '{'),
              std::count(seq.begin(), seq.end(), '}'));
    // Four replay cells, each carrying a fingerprint; the scenario
    // axes come from the recording.
    EXPECT_NE(seq.find("\"replay\":"), std::string::npos) << seq;
    EXPECT_EQ(countOccurrences(seq, "\"fingerprint\": \"0x"), 4u) << seq;
    EXPECT_EQ(countOccurrences(seq, "\"workload\": \"lu\""), 4u) << seq;
    EXPECT_EQ(countOccurrences(seq, "\"cores\": 2"), 4u) << seq;
    EXPECT_NE(seq.find("\"cells_failed\": 0"), std::string::npos) << seq;
}

TEST_F(CliEndToEnd, ReplayedFingerprintMatchesTheRecording)
{
    // The recorded run prints its fingerprint; the replay of the same
    // lifeguard must print the identical one (and pass its internal
    // bit-identical self-check to even get there).
    CliTraceFile trace("fp");
    std::string rec, rep;
    ASSERT_EQ(runCli("--workload=fmm --lifeguard=memcheck --cores=2 "
                     "--scale=600 --memory-model=tso --record=" +
                         trace.path(),
                     rec),
              0)
        << rec;
    ASSERT_EQ(runCli("--replay=" + trace.path(), rep), 0) << rep;

    auto fingerprint = [](const std::string &out) {
        std::size_t at = out.find("shadow fingerprint: ");
        return at == std::string::npos ? std::string()
                                       : out.substr(at, 38);
    };
    ASSERT_FALSE(fingerprint(rec).empty()) << rec;
    EXPECT_EQ(fingerprint(rec), fingerprint(rep)) << rec << rep;
}

TEST_F(CliEndToEnd, ReplayOfMissingOrBogusFileFailsCleanly)
{
    std::string out;
    EXPECT_EQ(runCli("--replay=/nonexistent/paralog.trace", out), 2)
        << out;
    EXPECT_NE(out.find("--replay"), std::string::npos) << out;

    // A file that is not a trace is rejected by the magic check.
    CliTraceFile bogus("bogus");
    std::FILE *f = std::fopen(bogus.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 8; ++i)
        std::fputs("this is not a paralog trace file at all.....", f);
    std::fclose(f);
    EXPECT_EQ(runCli("--replay=" + bogus.path(), out), 2) << out;
    EXPECT_NE(out.find("magic"), std::string::npos) << out;
}

// --------------------------------------------- interrupts and daemon

TEST_F(CliEndToEnd, SigintEmitsPartialCsvAndExits130)
{
    // First Ctrl-C mid-matrix: the cells already running finish, the
    // tail is skipped, the CSV carries an `# interrupted` marker, and
    // the driver exits 130. A big sequential matrix guarantees the
    // signal lands while most cells are still queued.
    const char *bin = std::getenv("PARALOG_CLI");
    ASSERT_NE(bin, nullptr);
    std::string cmd =
        std::string("'") + bin +
        "' --csv --workload=all --lifeguard=all --cores=2,4 "
        "--scale=1000000 --jobs=1 2>/dev/null & pid=$!; sleep 1; "
        "kill -INT $pid; wait $pid; echo \"EXIT:$?\"";
    FILE *pipe = popen(cmd.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    pclose(pipe);

    EXPECT_NE(out.find("EXIT:130"), std::string::npos) << out;
    EXPECT_NE(out.find("# interrupted:"), std::string::npos) << out;
    EXPECT_NE(out.find("cells skipped"), std::string::npos) << out;
    // The header still printed — the partial CSV is parseable.
    EXPECT_NE(out.find("workload,lifeguard,mode,cores"),
              std::string::npos)
        << out;
}

TEST_F(CliEndToEnd, SubmitWithoutDaemonFailsCleanly)
{
    // The client flags end to end, with no daemon listening: a clear
    // connect error on stderr and a non-zero exit, not a hang.
    CliTraceFile trace("nodaemon");
    std::FILE *f = std::fopen(trace.path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("irrelevant: never read, connect fails first", f);
    std::fclose(f);

    std::string out;
    int rc = runCli("--submit=" + trace.path() +
                        " --socket=/nonexistent/paralogd.sock",
                    out);
    EXPECT_EQ(rc, 1) << out;
    EXPECT_NE(out.find("--submit"), std::string::npos) << out;
    EXPECT_NE(out.find("connect"), std::string::npos) << out;

    rc = runCli("--daemon-stats --socket=/nonexistent/paralogd.sock",
                out);
    EXPECT_EQ(rc, 1) << out;
    EXPECT_NE(out.find("--daemon-stats"), std::string::npos) << out;
}

TEST_F(CliEndToEnd, ShadowShardsAreResultInvariant)
{
    // The sharded chunk table is invisible to simulated results: CSV
    // output is bit-identical for any shard count.
    const std::string flags = "--workload=lu --lifeguard=memcheck "
                              "--cores=2 --scale=2000 --csv";
    std::string one, eight;
    ASSERT_EQ(runCli(flags + " --shadow-shards=1", one), 0) << one;
    ASSERT_EQ(runCli(flags + " --shadow-shards=8", eight), 0) << eight;
    EXPECT_EQ(one, eight);
}

} // namespace
} // namespace paralog::cli
