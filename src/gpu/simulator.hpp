/**
 * @file
 * Multi-SM simulation driver.
 *
 * Distributes a ray workload across SMs in warp-sized chunks, then runs a
 * global event loop that advances whichever SM has the earliest pending
 * event so the shared L2 / DRAM timing state is exercised in (approximate)
 * global cycle order.
 *
 * Two interchangeable event-loop implementations sit behind the facade,
 * selected by SimConfig::simThreads (RTP_SIM_THREADS in the harness):
 * the sequential reference loop (simThreads = 1) and a sharded loop
 * (simThreads >= 2) that runs each SM's events on one of
 * min(simThreads, numSms) worker threads, synchronising at the shared
 * L2/DRAM seam through the ShardGate protocol (gpu/shard.hpp). The two
 * are byte-identical in every output — SimResult JSON, trace, telemetry,
 * and checker behaviour — at any thread count; tests/test_sharded_equiv
 * and the CI determinism steps lock this in.
 *
 * The one entry point is the Simulation facade: construct it from a
 * SimConfig and a scene (BVH + triangles), then call run(rays) as many
 * times as needed.
 */

#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "bvh/bvh.hpp"
#include "gpu/config.hpp"
#include "gpu/sm.hpp"
#include "rtunit/rt_unit.hpp"

namespace rtp {

/** Aggregated outcome of one simulation run. */
struct SimResult
{
    Cycle cycles = 0;          //!< completion cycle of the last ray
    std::vector<RayResult> rayResults; //!< indexed by submitted ray order
    StatGroup stats;           //!< merged RT unit + predictor counters
    StatGroup memStats;        //!< merged cache/DRAM counters
    double simtEfficiency = 0.0;
    double avgBusyBanks = 0.0;

    /** Fraction helpers over completed rays. */
    double predictedRate() const;
    double verifiedRate() const;
    double hitRate() const;

    /**
     * Total node + triangle fetches performed by rays (pre-merge, the
     * accounting used by Figure 13 / Equation 1): each BVH node or leaf
     * primitive-block fetch of each ray counts once.
     */
    std::uint64_t totalMemAccesses() const;

    /** Requests that reached the L1 after intra-warp merging. */
    std::uint64_t postMergeAccesses() const;

    /**
     * Serialize the run outcome (cycles, rates, stat groups — not the
     * per-ray results) as one JSON object. Key order and number
     * formatting are deterministic, so two byte-identical runs produce
     * byte-identical JSON regardless of harness thread count.
     */
    void toJson(std::ostream &os) const;

    /** @return toJson output as a string. */
    std::string toJson() const;
};

/**
 * Per-SM predictor state that outlives individual runs (the paper's
 * Section 8 cross-frame experiment). Bind the set to each frame's BVH
 * before handing it to a Simulation; trained tables survive rebinds
 * unless @p preserve_state is false (or resetTables() is called).
 */
class PredictorSet
{
  public:
    PredictorSet() = default;

    PredictorSet(PredictorSet &&) = default;
    PredictorSet &operator=(PredictorSet &&) = default;

    /**
     * Create (first call) or rebind (later calls) one predictor per SM.
     * A rebind refreshes the hasher against the new BVH's bounds,
     * clears per-run statistics, and — when @p preserve_state is
     * false — drops the trained tables so every frame starts cold.
     * Node indices of a refit BVH must still identify the same
     * subtrees for preserved state to be meaningful.
     */
    void bind(const PredictorConfig &config, std::uint32_t num_sms,
              const Bvh &bvh, bool preserve_state = true);

    /** Invalidate all trained tables (e.g., after a full rebuild). */
    void resetTables();

    bool
    empty() const
    {
        return predictors_.empty();
    }

    std::size_t
    size() const
    {
        return predictors_.size();
    }

    /** Non-owning per-SM pointers (index = SM id). */
    std::vector<RayPredictor *> pointers() const;

  private:
    std::vector<std::unique_ptr<RayPredictor>> predictors_;
};

/**
 * One configured GPU bound to one scene. run(rays) executes a complete
 * simulation: every piece of mutable timing state (RtUnits, caches,
 * DRAM, ray buffers — and, by default, predictors) is constructed fresh
 * inside the call, so repeated runs are independent and repeatable.
 *
 * Predictor state (one predictor per SM, as in the paper):
 * - Default: predictors (if enabled) are owned and start cold each run.
 * - PredictorSet constructor: predictors live in the caller's set and
 *   carry trained state across runs/frames (bind() the set first).
 *
 * Observers: SimConfig's trace sink, profiler and checker are attached
 * to every component at the start of each run and detached at its end
 * (util/observers.hpp), so a PredictorSet never keeps reporting to a
 * previous run's observers.
 *
 * Thread-safety: concurrent run() calls on DIFFERENT Simulation objects
 * sharing one scene are safe in the default mode — the scene is only
 * read, and every piece of mutable simulation state (RtUnit,
 * MemorySystem, CacheModel, RayPredictor, the repacker and ray buffer)
 * is constructed inside run(). The parallel sweep harness
 * (src/exp/parallel.hpp) relies on this. Runs that share a PredictorSet
 * mutate it (predictors train during the run) and must not overlap;
 * each concurrent run needs its own set.
 *
 * The constructor validates the configuration against the scene
 * (SimConfig::validate) and throws std::invalid_argument on
 * inconsistent settings.
 */
class Simulation
{
  public:
    /** Self-contained mode: predictors (if enabled) owned per run. */
    Simulation(const SimConfig &config, const Bvh &bvh,
               const std::vector<Triangle> &triangles);

    /** Cross-frame mode: predictor state lives in @p predictors. */
    Simulation(const SimConfig &config, const Bvh &bvh,
               const std::vector<Triangle> &triangles,
               PredictorSet &predictors);

    /** Simulate one ray workload; see the class contract above. */
    SimResult run(const std::vector<Ray> &rays);

    const SimConfig &
    config() const
    {
        return config_;
    }

  private:
    SimConfig config_;
    const Bvh *bvh_;
    const std::vector<Triangle> *triangles_;
    PredictorSet *externalSet_ = nullptr; //!< cross-frame mode
};

} // namespace rtp
