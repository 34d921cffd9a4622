/**
 * @file
 * Bench-JSON regression comparison (the perf-gate core).
 *
 * Compares a freshly produced bench JSON document (bench_*.json,
 * bench_selfbench.json) against a committed baseline and reports every
 * metric whose relative deviation exceeds a per-kind tolerance. Lives in
 * the library — rather than in tools/bench_diff — so the comparison
 * rules are unit-testable without spawning processes.
 *
 * Comparison rules:
 *  - Deterministic metrics (cycles, counters, rates, ...) use a
 *    symmetric relative tolerance: |cur - base| <= relTol *
 *    max(|base|, 1). The max(.., 1) floor keeps near-zero baselines
 *    from turning rounding noise into violations.
 *  - Wall-clock throughput keys (rays_per_second) are inherently noisy
 *    and only gate in the slow direction: cur < base * (1 - perfTol)
 *    is a regression, faster is never a violation.
 *  - Timing keys (wall_seconds, serial_seconds, threads, runs, timing,
 *    reps) vary run to run and are always skipped.
 *  - The "histograms" subtrees are skipped by default (bucket layouts
 *    shift legitimately as workloads evolve); includeHistograms gates
 *    them too.
 *  - A key present in the baseline but absent from the current document
 *    is a violation (a silently vanished metric is itself a
 *    regression); keys only present in the current document are
 *    ignored, so adding new counters does not trip the gate.
 */

#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

namespace rtp {

/** Tolerances and subtree filters for a bench comparison. */
struct BenchDiffOptions
{
    /** Symmetric relative tolerance for deterministic metrics. */
    double relTol = 0.02;
    /** One-sided (slower-only) tolerance for throughput keys. */
    double perfTol = 0.25;
    /** When true, skip throughput keys entirely. */
    bool skipPerf = false;
    /** When true, compare the "histograms" subtrees as well. */
    bool includeHistograms = false;
};

/** One metric that deviated beyond tolerance. */
struct BenchViolation
{
    std::string path;   //!< dotted path, e.g. "results.SB/baseline.cycles"
    std::string kind;   //!< "value", "perf", "missing", "type", "shape"
    double baseline = 0.0;
    double current = 0.0;
    /** Signed (current - baseline) / max(|baseline|, 1). */
    double relDelta = 0.0;
    std::string message; //!< one-line human-readable description
};

/** @return true for run-to-run timing keys that are never compared. */
bool isBenchTimingKey(const std::string &key);

/** @return true for wall-clock throughput keys gated by perfTol. */
bool isBenchPerfKey(const std::string &key);

/**
 * Compare @p current against @p baseline under @p opts.
 * @return All violations in document order (empty = within tolerance).
 */
std::vector<BenchViolation> compareBench(const JsonValue &baseline,
                                         const JsonValue &current,
                                         const BenchDiffOptions &opts);

/** Render one violation as a single aligned report line. */
std::string formatViolation(const BenchViolation &v);

} // namespace rtp
