/**
 * @file
 * perfbench: run one benchmark workload and print its report.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S [--trace]
 *             [--run-dir=DIR] [--repo-root=DIR]
 *
 * Prints `digest:` and (live_fig6_addrcheck) `csv:` lines, then one
 * JSON line with the metrics, the digest(s), the attempt/failure
 * counts and any wrong outputs. perfbench/run.py builds this binary,
 * checks the pinned CSV and prints the benchmark's result line.
 */

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "common/logging.hpp"
#include "util.hpp"

namespace {

bool
flag(const char *arg, const char *name, std::string &value)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) != 0 || arg[n] != '=')
        return false;
    value = arg + n + 1;
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload=NAME --seed=N --seconds=S "
                 "[--trace] [--run-dir=DIR] [--repo-root=DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string v;
        if (flag(argv[i], "--workload", v))
            opt.workload = v;
        else if (flag(argv[i], "--seed", v))
            opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (flag(argv[i], "--seconds", v))
            opt.seconds = std::strtod(v.c_str(), nullptr);
        else if (flag(argv[i], "--run-dir", v))
            opt.runDir = v;
        else if (flag(argv[i], "--repo-root", v))
            opt.repoRoot = v;
        else if (std::strcmp(argv[i], "--trace") == 0)
            opt.trace = true;
        else
            return usage();
    }
    if (opt.workload.empty() || !(opt.seconds > 0))
        return usage();

    // glibc raises its mmap threshold each time it frees a large
    // mmapped block, so which blocks later come from (and stay in) the
    // thread arenas depends on the order cells freed memory in; on
    // live_fig6_addrcheck, peak_rss_mb then jumped between two levels
    // about 10% apart from run to run. Fixing the threshold at the
    // maximum it would climb to anyway removes that history and costs
    // no speed (a 128 KiB threshold steadies it too, but page faults
    // then slow every cell by about 12%).
    mallopt(M_MMAP_THRESHOLD, 32 << 20);

    // Contain simulator panics (watchdogs, footer self-checks) to the
    // cell that raised them; the workloads count them as failures.
    paralog::setPanicThrows(true);
    paralog::setQuiet(true);

    Report rep;
    try {
        rep = runBenchmark(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("digest: %s\n", rep.digest.c_str());
    for (const std::string &row : rep.csv)
        std::printf("csv: %s\n", row.c_str());
    std::string errors = "[";
    for (const std::string &e : rep.errors)
        errors += (errors.size() > 1 ? ",\"" : "\"") + jsonEscape(e) + "\"";
    errors += "]";
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"known_defects\":%llu,"
                "\"metrics\":%s,\"digest\":\"%s\",\"traced_digest\":\"%s\","
                "\"rounds\":%llu,\"latency_samples\":%llu,"
                "\"p90_beyond\":%llu,\"errors\":%s}\n",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.knownDefects),
                metricsJson(rep.metrics).c_str(), rep.digest.c_str(),
                rep.tracedDigest.c_str(),
                static_cast<unsigned long long>(rep.rounds),
                static_cast<unsigned long long>(rep.latencySamples),
                static_cast<unsigned long long>(rep.p90Beyond),
                errors.c_str());
    return 0;
}
