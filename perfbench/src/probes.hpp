/**
 * @file
 * How the benchmark looks inside a run without changing the library:
 * decorators for the traced run (ThreadProgram::take through
 * PlatformConfig::customWorkload, Lifeguard::handle through
 * PlatformConfig::customLifeguard), the live-cell runner shared by the
 * two live workloads, and readers for the public StatSets and
 * RunResult.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/experiment.hpp"

namespace perfbench {

/** One live cell of a grid. */
struct LiveCell
{
    paralog::WorkloadKind workload;
    paralog::LifeguardKind lifeguard;
    paralog::MonitorMode mode;
    std::uint32_t cores;
    paralog::ExperimentOptions opt;
};

struct CellOutcome
{
    paralog::RunResult result;
    bool failed = false;
    std::string error;
    double ctorS = 0;
    double runS = 0;
    double takeS = 0; ///< traced run only: time inside take()
    /// Shadow fingerprint of the finished run (parallel mode only;
    /// heap + global segments, as trace footers record it).
    std::uint64_t shadowFp = 0;
};

/** Which engine a live cell runs on (core.run.host_s.<engine>). */
const char *liveEngine(const LiveCell &cell);

/** "barnes/parallel/4" style label. */
std::string cellLabel(const LiveCell &cell);

/**
 * Construct and run one live cell, containing a panic to the cell.
 * With the tracer enabled the workload is decorated, and so is the
 * lifeguard on serial-engine parallel cells (the concurrent engine
 * serialises steps for any custom lifeguard, so decorating it there
 * would measure a different program). Adds the cell's per-layer
 * counts to @p layers.
 */
CellOutcome runLiveCell(const LiveCell &cell, Layers &layers);

/** Add a RunResult's per-core counters to @p layers. Replays leave
 *  out the application columns (copied from the recording, not
 *  simulated) with @p app false. */
void addRunResult(const paralog::RunResult &r, Layers &layers,
                  bool app = true);

/** Every simulated stat of @p r (per-core vectors included). */
void digestFull(class Digest &d, const paralog::RunResult &r);

/** The CLI's CSV row for a cell (BENCH_*.json column order). */
std::string csvRow(const LiveCell &cell, const paralog::RunResult &r);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
