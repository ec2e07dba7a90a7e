/**
 * @file
 * Unified fault-injection registry.
 *
 * The deterministic way to exercise containment paths: a matrix cell,
 * a lifeguard thread, a daemon connection or job fails on demand. Two
 * arming mechanisms:
 *
 *  - Environment: PARALOG_FAULT="point=value;point=value" — e.g.
 *    PARALOG_FAULT="cell.fail=3;daemon.stall-worker=50".
 *
 *  - Programmatic: armFault()/clearFault() from tests that share the
 *    process with running daemon threads, where setenv() mid-flight
 *    would race getenv() callers. Programmatic arms win.
 *
 * Fault points (value semantics in parentheses):
 *
 *   cell.fail            matrix cell index that panics instead of running
 *   lg.fail              lifeguard thread id that panics (concurrent live
 *                        and concurrent replay)
 *   seal.stall           lifeguard stream that is never published
 *                        (concurrent live and concurrent replay)
 *   job.fail             daemon job sequence number that panics in its worker
 *   daemon.drop-conn     accepted-connection sequence number to drop on accept
 *   daemon.corrupt-crc   ingest session id whose next chunk CRC is flipped
 *   daemon.stall-worker  milliseconds each daemon job stalls before running
 *
 * Queries are cold-path (once per cell / connection / job), so they
 * re-read the environment every time: tests that setenv() between runs
 * keep working without an explicit reload hook.
 */

#ifndef PARALOG_COMMON_FAULT_INJECTION_HPP
#define PARALOG_COMMON_FAULT_INJECTION_HPP

#include <cstdint>
#include <optional>
#include <string>

namespace paralog {

/**
 * The armed value of @p point, or nullopt when the point is not armed.
 * Precedence: programmatic arm, then a PARALOG_FAULT entry.
 */
std::optional<std::uint64_t> faultValue(const std::string &point);

/** True iff faultValue(point) == value (the common "is it my turn to
 *  fail?" query). */
bool faultHits(const std::string &point, std::uint64_t value);

/** Arm @p point programmatically (thread-safe; wins over environment). */
void armFault(const std::string &point, std::uint64_t value);

/** Disarm a programmatic arm (environment arms are unaffected). */
void clearFault(const std::string &point);

/** Disarm every programmatic arm. */
void clearAllFaults();

} // namespace paralog

#endif // PARALOG_COMMON_FAULT_INJECTION_HPP
