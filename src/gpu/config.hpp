/**
 * @file
 * Top-level simulation configuration, mirroring the paper's Table 2
 * (GPGPU-Sim configuration) and Table 3 (predictor configuration).
 */

#pragma once

#include <cstdint>
#include <string>

#include "core/predictor.hpp"
#include "mem/memory_system.hpp"
#include "rtunit/rt_unit.hpp"

namespace rtp {

class TraceSink;
class TelemetrySampler;
class InvariantChecker;
class CycleProfiler;
class Bvh;

/** Full simulation configuration. */
struct SimConfig
{
    std::uint32_t numSms = 2; //!< Table 2: 2 SMs, one RT unit each
    RtUnitConfig rt;
    PredictorConfig predictor;
    MemoryConfig memory;

    /**
     * Host worker threads for the event loop (NOT a simulated knob —
     * excluded from configToJson, and results are byte-identical at any
     * value). 1 = the sequential reference loop; >= 2 = the sharded
     * loop with min(simThreads, numSms) workers, each advancing a
     * subset of SMs and meeting at the L2/DRAM seam in exact
     * (cycle, sm) order (see docs/performance.md). A run with a trace
     * sink or a telemetry sampler always takes the sequential loop.
     * Driven by the RTP_SIM_THREADS env var in the bench harness. Must
     * be >= 1.
     */
    std::uint32_t simThreads = 1;

    /**
     * Optional cycle-level trace sink (not owned; nullptr = tracing
     * off). Attached to every component for the duration of each run
     * (util/observers.hpp). Tracing is a pure observer: simulated
     * cycles and statistics are identical with and without a sink. The
     * sink is single-threaded — trace at most one Simulation::run call
     * per sink at a time.
     */
    TraceSink *trace = nullptr;

    /**
     * Optional interval-sampling telemetry sampler (not owned; nullptr
     * = telemetry off). Attached to the RT units and memory system
     * before the event loop runs and fed at event-boundary granularity;
     * see util/telemetry.hpp. Like tracing, sampling is a pure
     * observer: simulated cycles and statistics are byte-identical with
     * and without a sampler. Single-threaded — at most one
     * Simulation::run call per sampler at a time.
     */
    TelemetrySampler *telemetry = nullptr;

    /**
     * Optional invariant checker (not owned; nullptr = checking off).
     * Attached to every component for the duration of each run; probes
     * then enforce conservation laws at event boundaries, the driver
     * runs an end-of-run accounting sweep, and every completed ray is
     * cross-checked against the recursive reference-traversal oracle
     * (core/reference.hpp). Violations throw InvariantViolation with a
     * full context dump. Same pure-observer contract as trace and
     * telemetry: simulated cycles, statistics, and per-ray results are
     * byte-identical with and without a checker. Single-threaded — at
     * most one Simulation::run call per checker at a time.
     */
    InvariantChecker *check = nullptr;

    /**
     * Optional per-cycle attribution profiler (not owned; nullptr =
     * profiling off). Attached to the RT units, memory hierarchy,
     * predictors, and collectors for the duration of each run; every SM
     * cycle is classified into exactly one exclusive category (see
     * util/profile.hpp) and the driver asserts the conservation law
     * through SimConfig::check when both are attached. Same
     * pure-observer contract as trace/telemetry/check: simulated
     * cycles, statistics, and per-ray results are byte-identical with
     * and without a profiler, at any simThreads.
     * Single-threaded — at most one Simulation::run call per profiler
     * at a time (per-SM slices are only touched by the worker that owns
     * the SM).
     */
    CycleProfiler *profile = nullptr;

    /** The baseline (Table 2/3) configuration with the predictor on. */
    static SimConfig proposed();

    /** Baseline RT unit without a predictor. */
    static SimConfig baseline();

    /**
     * Reject inconsistent settings with a descriptive
     * std::invalid_argument (zero SMs, zero-width warps, no L1 ports,
     * zero-sized cache lines, ...). Simulation's constructor calls this,
     * so a bad sweep config fails at construction with a named field
     * instead of dividing by zero or deadlocking mid-run.
     */
    void validate() const;

    /**
     * validate() plus scene-dependent checks: a Go-Up-Level beyond the
     * BVH's depth can never name an existing ancestor.
     */
    void validate(const Bvh &bvh) const;
};

/** One-line summary of a configuration (for bench/table headers). */
std::string describe(const SimConfig &config);

/**
 * Serialize every simulated knob of @p config as one deterministic JSON
 * object (observer pointers are omitted). tools/simfuzz prints this as
 * part of a failure reproducer so a failing sweep point can be rebuilt
 * exactly without re-deriving it from the seed.
 */
std::string configToJson(const SimConfig &config);

} // namespace rtp
