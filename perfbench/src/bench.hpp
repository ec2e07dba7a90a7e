/**
 * @file
 * The benchmark's workload interface and runner.
 *
 * A workload sets itself up (timed, repeated for setup_s), then runs
 * rounds until the run's time is spent. A round is one unit of
 * user-visible work: a figure grid, a set of replays, a burst of
 * daemon traffic. The runner turns rounds into the end-to-end metrics.
 * The traced run alternates untraced and traced rounds of the same
 * inputs, for the per-layer metrics and the tracing overhead.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Layers = std::map<std::string, double>;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Seconds-long run at reduced sizes (the benchmark's own tests).
    bool smoke = false;
    /// Scratch directory for recordings, sockets and span files.
    std::string runDir = ".bench_build/run";
    /// Repository root (for tests/corpus).
    std::string repoRoot = ".";
};

/**
 * One deterministic unit of work (a cell, a replay), identified by
 * @p key. The same key recurs in every round that runs the same input
 * set; the runner takes each key's median host time over the run, so a
 * transient stall of the host moves one sample, not the figure.
 */
struct Sample
{
    std::string key;
    double units = 0; ///< work done (identical for every run of the key)
    double hostS = 0;
    double latMs = 0; ///< the latency this unit reports
    bool failed = false;
    /// Counted for success_ratio only, not timed (see remonitor).
    bool untimed = false;
};

/** What one round produced. */
struct Round
{
    /// Keyed units of work (live and replay workloads). Their
    /// success_ratio counts each key once: a key fails if any of its
    /// runs failed, however many rounds repeated it.
    std::vector<Sample> samples;
    /// Rounds without keyed samples (the daemon's open-loop traffic):
    /// work completed and the host seconds it took, and one latency
    /// per request.
    double units = 0;
    double hostS = 0;
    std::vector<double> latMs;
    std::uint64_t attempted = 0;
    /// Attempts that failed unexpectedly: the benchmark's `failed`.
    std::uint64_t failed = 0;
    /// Attempts that hit the known barnes TSO + TaintCheck deadlock
    /// (see live_tso_taintcheck). They count against success_ratio and
    /// fail_ratio, but not in `failed`: the defect is what the
    /// benchmark expects of that cell at baseline, not a new failure.
    std::uint64_t knownDefects = 0;
    /// Host time left out of the tracing-overhead comparison: reference
    /// runs for the round's checks, and first failures of cells that a
    /// traced twin round does not run again (see live_tso_taintcheck).
    double untimedS = 0;
    /// Which of the workload's seed-derived input sets the round ran.
    std::size_t inputSet = 0;
    std::string digest; ///< digest of the simulated outputs checked
    std::vector<std::string> errors; ///< wrong outputs
    std::vector<std::string> csv;    ///< live_fig6 rows, CLI format
    Layers layers; ///< raw per-layer sums (see finalizeLayers)
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Build the inputs from the seed. Timed and run several times;
     *  each call replaces the previous set-up. */
    virtual void setup() = 0;

    /** Round @p index of its pass (the traced run's untraced and
     *  traced rounds share indices, so they run the same inputs). */
    virtual Round round(std::size_t index) = 0;

    /** Traced run only: probes that time a layer outside the rounds
     *  (trace scans, recording cost). */
    virtual void tracedExtras(Layers &) {}

    /** Rounds a run makes even past its time: one per input set, so
     *  every run measures every input set. */
    virtual std::size_t minRounds() const { return 1; }
};

std::unique_ptr<BenchWorkload> makeLiveFig6(const Options &opt);
std::unique_ptr<BenchWorkload> makeLiveTso(const Options &opt);
std::unique_ptr<BenchWorkload> makeRemonitor(const Options &opt);
std::unique_ptr<BenchWorkload> makeDaemonCorpus(const Options &opt);

/** Workload seed of input set @p set of a run: set 0 is the run's
 *  seed itself, the others are derived from it. */
std::uint64_t inputSeed(std::uint64_t seed, std::size_t set);

/** A workload's name and factory. */
struct WorkloadEntry
{
    const char *name;
    std::unique_ptr<BenchWorkload> (*make)(const Options &);
};

/** Every workload, in BENCHMARK.json order. */
const std::vector<WorkloadEntry> &workloads();

/** Turn raw per-layer sums into the reported metrics: every key but
 *  the "raw." ones, averaged per round, plus the ratios and per-call
 *  figures computed from the sums. A metric that does not apply to
 *  the workload is left out; perfbench/run.py reports it as 0. */
Layers finalizeLayers(const Layers &raw, double rounds);

struct Report
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t knownDefects = 0;
    std::map<std::string, double> metrics;
    std::string digest;
    std::string tracedDigest; ///< traced run only
    std::vector<std::string> errors;
    std::vector<std::string> csv;
    std::uint64_t rounds = 0;
    std::uint64_t latencySamples = 0;
    std::uint64_t p90Beyond = 0; ///< samples above the reported p90
};

/** Run @p opt.workload end to end. */
Report runBenchmark(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
