/**
 * @file
 * Interval-sampled telemetry timelines: the simulator's sampling-counter
 * layer (the nvprof/Nsight model).
 *
 * The trace layer (util/trace.hpp) records individual events; end-of-run
 * StatGroups record totals. Neither can show *rates over time* — the
 * predictor warming up over a frame, occupancy dipping around mispredict
 * restarts, the cache working set stabilising. A TelemetrySampler closes
 * that gap: every N simulated cycles it snapshots cheap cumulative and
 * instantaneous counters from every modelled unit (RtUnit, CacheModel,
 * DramModel, RayPredictor, PartialWarpCollector) into a timeline record,
 * exported as JSON or CSV and summarised by `rtp_report timeline`.
 *
 * Overhead contract (same as TraceSink): sampling is a pure observer.
 * Probes only read component state, so attaching a sampler cannot change
 * cycle counts, statistics, or per-ray results, and a run without a
 * sampler pays exactly one branch per event step.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mem/cache.hpp" // Cycle

namespace rtp {

class RtUnit;
class MemorySystem;

/**
 * One per-SM telemetry row. Counters are *cumulative at the sample
 * cycle* unless noted as instantaneous; consumers difference
 * consecutive samples to obtain per-interval rates.
 */
struct TelemetrySmSample
{
    // RT unit activity (cumulative, distinct-cycle counts).
    std::uint64_t busy_cycles = 0;  //!< cycles with >= 1 issuing warp step
    std::uint64_t stall_cycles = 0; //!< cycles with >= 1 stalled warp step
    // Occupancy (instantaneous).
    std::uint64_t active_warps = 0;
    std::uint64_t resident_rays = 0;
    std::uint64_t ray_buffer_capacity = 0;
    std::uint64_t event_queue_depth = 0;
    std::uint64_t repack_queue_depth = 0;
    // Warp flow (cumulative).
    std::uint64_t warps_dispatched = 0;
    std::uint64_t repacked_warps = 0;
    std::uint64_t warps_retired = 0;
    std::uint64_t rays_completed = 0;
    // Predictor outcome stream (cumulative).
    std::uint64_t rays_predicted = 0;
    std::uint64_t rays_verified = 0;
    std::uint64_t rays_mispredicted = 0;
    std::uint64_t pred_lookups = 0;
    std::uint64_t pred_hits = 0;
    std::uint64_t pred_trains = 0;
    // This SM's L1 (cumulative).
    std::uint64_t l1_hits = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t l1_mshr_merges = 0;
};

/** Shared (L2 + DRAM) telemetry row; cumulative unless noted. */
struct TelemetryGlobalSample
{
    std::uint64_t l2_hits = 0;
    std::uint64_t l2_misses = 0;
    std::uint64_t l2_mshr_merges = 0;
    std::uint64_t dram_accesses = 0;
    std::uint64_t dram_row_hits = 0;
    std::uint64_t dram_row_misses = 0;
    std::uint64_t dram_busy_accum = 0;   //!< sum of busy-bank counts
    std::uint64_t dram_busy_samples = 0; //!< accesses sampled into accum
    std::uint64_t dram_banks_busy_now = 0; //!< instantaneous at sample
    std::uint64_t dram_num_banks = 0;      //!< configuration constant
};

/** Name + member-pointer row of the counter catalogue (serialisers and
 *  generic consumers iterate these instead of hand-listing fields). */
struct TelemetrySmField
{
    const char *name;
    std::uint64_t TelemetrySmSample::*member;
};

struct TelemetryGlobalField
{
    const char *name;
    std::uint64_t TelemetryGlobalSample::*member;
};

/** @return The per-SM field catalogue (null-name terminated). */
const TelemetrySmField *telemetrySmFields();

/** @return The global field catalogue (null-name terminated). */
const TelemetryGlobalField *telemetryGlobalFields();

/** One timeline record: every SM plus the shared memory system. */
struct TelemetryRecord
{
    Cycle cycle = 0;
    std::vector<TelemetrySmSample> sms;
    TelemetryGlobalSample global;
};

/**
 * The interval sampler. Construct with the sampling period, point
 * SimConfig::telemetry at it, and run a Simulation; the event loop
 * attaches the probes and calls sampleUpTo() as simulated time
 * advances, recording one TelemetryRecord per period boundary plus a
 * final record at the run's completion cycle.
 *
 * Like TraceSink, the sampler observes one simulation run at a time on
 * one thread; records append across runs (clear() between runs for a
 * fresh timeline). The record store is bounded: past maxRecords the
 * newest samples are dropped and counted (a timeline's warm-up prefix
 * is its most valuable part, the opposite of a trace ring).
 */
class TelemetrySampler
{
  public:
    /**
     * @param period Sampling period in simulated cycles (>= 1).
     * @param max_records Record-store bound.
     * @throws std::invalid_argument when @p period is zero.
     */
    explicit TelemetrySampler(Cycle period,
                              std::size_t max_records = 1u << 18);

    /**
     * Bind the probes for one run (called by the event loop). The
     * pointees must outlive the run; finish() detaches them.
     */
    void attach(std::vector<const RtUnit *> units,
                const MemorySystem *mem);

    /**
     * Record every pending sample boundary <= @p c. Called with the
     * globally earliest unprocessed event cycle, so a sample at cycle S
     * sees exactly the state after all events < S (start-of-cycle-S
     * semantics). One compare when no boundary is due.
     */
    void
    sampleUpTo(Cycle c)
    {
        while (attached_ && c >= nextSample_)
            takeSample(nextSample_);
    }

    /** Take the final (possibly off-period) sample and detach. */
    void finish(Cycle end_cycle);

    Cycle
    period() const
    {
        return period_;
    }

    bool
    attached() const
    {
        return attached_;
    }

    const std::vector<TelemetryRecord> &
    records() const
    {
        return records_;
    }

    /** @return Samples not recorded because the store was full. */
    std::uint64_t
    droppedRecords() const
    {
        return droppedRecords_;
    }

    /** Drop all records (keeps period and the drop counter). */
    void clear();

    /**
     * Write the timeline as one JSON object:
     * {"telemetry":{"period":..,"num_sms":..,"dropped_records":..,
     *  "samples":[{"cycle":..,"sms":[{..}],"global":{..}},..]}}.
     * Key order and formatting are deterministic.
     */
    void writeJson(std::ostream &os) const;

    /** Write the JSON timeline to @p path. @return true on success. */
    bool writeJson(const std::string &path) const;

    /**
     * Write the timeline as long-format CSV:
     * cycle,scope,counter,value — scope is "sm<i>" or "global".
     */
    void writeCsv(std::ostream &os) const;

    /** Write the CSV timeline to @p path. @return true on success. */
    bool writeCsv(const std::string &path) const;

  private:
    /** Snapshot every probe into one record stamped @p at. */
    void takeSample(Cycle at);

    Cycle period_;
    Cycle nextSample_;
    std::size_t maxRecords_;
    bool attached_ = false;
    // Set at attach() and kept after finish() clears units_, so the
    // JSON header reports the configured SM count even when a run was
    // too short to capture any records.
    std::size_t numSms_ = 0;
    std::vector<const RtUnit *> units_;
    const MemorySystem *mem_ = nullptr;
    std::vector<TelemetryRecord> records_;
    std::uint64_t droppedRecords_ = 0;
};

} // namespace rtp
