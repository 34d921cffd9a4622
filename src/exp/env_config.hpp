/**
 * @file
 * Unified RTP_* environment configuration.
 *
 * Every host-side execution knob the harness and the tools honour is
 * parsed here, strictly, in one place — previously the
 * parsing was scattered across exp/harness.cpp, exp/parallel.cpp,
 * exp/workload.cpp, and the tools, each with its own (sometimes
 * lenient) rules. A malformed value throws std::invalid_argument with
 * the variable name and offending text (parseThreadCountEnv in
 * exp/parallel.hpp is built on the same parser): typos must fail
 * loudly, not silently become a default.
 *
 * None of these variables is a *simulated* knob: results are
 * byte-identical at any legal setting (thread counts) or the variable
 * only attaches observers / redirects files.
 *
 * | Variable             | Meaning                                  | Default            |
 * |----------------------|------------------------------------------|--------------------|
 * | RTP_THREADS          | sweep-level pool size                    | hardware threads   |
 * | RTP_SIM_THREADS      | per-simulation event-loop workers        | 1 (sequential)     |
 * | RTP_CHECK            | 1 = invariant checker + oracle on        | 0                  |
 * | RTP_TRACE            | Chrome-trace output path                 | (off)              |
 * | RTP_TRACE_POINT      | sweep-point index to trace               | 0                  |
 * | RTP_TELEMETRY        | telemetry timeline path (.csv = CSV)     | (off)              |
 * | RTP_TELEMETRY_POINT  | sweep-point index to sample              | 0                  |
 * | RTP_TELEMETRY_PERIOD | sampling period in simulated cycles      | 256                |
 * | RTP_PROFILE          | cycle-attribution profile JSON path      | (off)              |
 * | RTP_PROFILE_POINT    | sweep-point index to profile             | 0                  |
 * | RTP_JSON_DIR         | directory for bench_*.json sinks         | working directory  |
 * | RTP_SCALE            | workload fidelity 1..16 (clamped high)   | 1                  |
 *
 * The documented table above is the single source of truth; README.md
 * mirrors it for users.
 *
 * Removed knobs: RTP_KERNEL (the SoA intersection kernels),
 * RTP_BACKEND (the learned predictor backend), RTP_SERVICE (the job
 * server that ran sweeps instead of the runSweep pool), RTP_METRICS
 * (the Prometheus text exposition of the profile and stat groups) and
 * RTP_SELFBENCH_REPS (the repetitions of the deleted selfbench tool;
 * perfbench/ is the one host benchmark) no longer exist. Any non-empty
 * value throws, so a stale script fails instead of silently running
 * the one remaining kernel, predictor table and sweep path, or
 * silently writing no metrics file.
 */

#pragma once

#include <cstdint>
#include <string>

#include "exp/parallel.hpp"

namespace rtp {

/** Every RTP_* knob, parsed and validated. */
struct EnvConfig
{
    /** RTP_THREADS x RTP_SIM_THREADS, composed (threadBudgetFromEnv). */
    ThreadBudget budget;

    /** RTP_CHECK: invariant checker + reference oracle per sweep point. */
    bool check = false;

    /** RTP_TRACE / RTP_TRACE_POINT (empty path = tracing off). */
    std::string tracePath;
    std::size_t tracePoint = 0;

    /** RTP_TELEMETRY / RTP_TELEMETRY_POINT / RTP_TELEMETRY_PERIOD. */
    std::string telemetryPath;
    std::size_t telemetryPoint = 0;
    std::uint64_t telemetryPeriod = 256;

    /** RTP_PROFILE / RTP_PROFILE_POINT (empty path = profiling off). */
    std::string profilePath;
    std::size_t profilePoint = 0;

    /** RTP_JSON_DIR (empty = working directory). */
    std::string jsonDir;

    /** RTP_SCALE, validated positive and clamped to [1, 16]. */
    int scale = 1;

    /**
     * Parse the full environment. Re-reads every variable on each call
     * (no caching) so tests can vary the environment between sweeps.
     * @throws std::invalid_argument naming the variable and value on
     *         the first malformed setting encountered.
     */
    static EnvConfig fromEnvironment();
};

/** @return the variable's value, or "" when unset (for path vars). */
std::string envString(const char *name);

/**
 * Strict boolean environment flag: unset, "" and "0" are false, "1" is
 * true, anything else throws std::invalid_argument. ("true"/"yes" are
 * rejected deliberately — one spelling, no surprises in CI scripts.)
 */
bool parseEnvFlag(const char *name);

/**
 * Strict non-negative decimal integer from any text source (an
 * environment value or a command-line argument): no signs, no
 * whitespace, no trailing junk, no empty string. @p name labels the
 * std::invalid_argument thrown on anything else.
 */
std::uint64_t parseDecimal(const char *name, const char *text);

/**
 * Strict non-negative decimal environment integer (for indices like
 * RTP_TRACE_POINT). Unset returns @p fallback; anything that is not a
 * plain decimal number throws std::invalid_argument.
 */
std::uint64_t parseEnvIndex(const char *name, std::uint64_t fallback);

/**
 * Strict positive decimal environment integer (>= 1), for counts and
 * periods. Unset returns @p fallback; zero, signs, whitespace, or
 * trailing junk throw std::invalid_argument.
 */
std::uint64_t parseEnvPositive(const char *name, std::uint64_t fallback);

} // namespace rtp
