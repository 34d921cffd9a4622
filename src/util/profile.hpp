/**
 * @file
 * Per-cycle attribution profiler: the third observability layer.
 *
 * The trace layer (util/trace.hpp) answers "what happened when"; the
 * telemetry layer (util/telemetry.hpp) answers "how did the counters
 * evolve"; this layer answers the top-down question the reordering
 * work needs: *which category of work was each SM cycle spent on*.
 *
 * Every simulated cycle of every SM is classified into exactly one of
 * a fixed set of exclusive categories (CycleCat), further split by the
 * ray type being serviced (ProfRayType). The accounting is span-based:
 * the profiler keeps a per-SM cursor of the next unaccounted cycle;
 * each RtUnit event closes the wait gap since the cursor under the
 * pending wait category, charges the event's own cycle to an execution
 * category, and re-arms the pending wait from what the step actually
 * did (memory level touched, compute latency, repack wait, idle).
 * finish() drains every SM to the run's end cycle as idle/drain.
 *
 * By construction this yields a hard conservation law — for every SM,
 * the category counts sum to the elapsed cycles — which
 * checkConservation() asserts through the InvariantChecker, and which
 * `rtp_report cycles` re-verifies offline from the JSON.
 *
 * Zero-perturbation contract (same as trace/telemetry/check): the
 * profiler attaches to SimConfig::profile as a non-owned pointer,
 * nullptr means off, every probe site is a single branch, and no
 * simulated state is read back out of the profiler. Per-SM slices are
 * only ever touched from the worker that owns the SM's event loop, and
 * shared-seam tallies (L2/DRAM) only from inside the ShardGate's
 * serialised section, so the sharded loop needs no extra merge step:
 * output is byte-identical at any RTP_SIM_THREADS.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mem/cache.hpp" // Cycle

namespace rtp {

class InvariantChecker;

/**
 * Exclusive cycle-attribution categories. Execution categories
 * (WarpIssue..MispredictRestart) charge cycles where the SM retired
 * work of that kind; stall categories (L1Stall..RepackWait) charge
 * cycles the SM spent waiting; IdleDrain covers cycles before first
 * dispatch, between batches, and after the SM's last ray completed.
 */
enum class CycleCat : std::uint8_t
{
    WarpIssue = 0,     //!< warp scheduling / retire-only steps
    BoxTest,           //!< interior-node slab test issued
    TriTest,           //!< leaf triangle test issued
    PredLookup,        //!< predictor table lookup step
    PredVerify,        //!< predicted-subtree verification traversal
    MispredictRestart, //!< root restart after a failed verification
    L1Stall,           //!< waiting on a fetch served by L1
    L2Stall,           //!< waiting on a fetch served by L2
    DramStall,         //!< waiting on a fetch served by DRAM
    RepackWait,        //!< stalled with rays parked in the collector
    IdleDrain,         //!< no work: pre-dispatch, drain, or finished
};

/** Number of CycleCat values (array extent). */
constexpr std::size_t kCycleCatCount = 11;

/** Ray-type dimension of the attribution table. */
enum class ProfRayType : std::uint8_t
{
    None = 0,   //!< cycle not attributable to a specific ray kind
    Occlusion,  //!< any-hit (AO / shadow) rays
    ClosestHit, //!< closest-hit (primary / secondary) rays
};

/** Number of ProfRayType values (array extent). */
constexpr std::size_t kProfRayTypeCount = 3;

/** @return Stable snake_case name used in JSON and metric labels. */
const char *cycleCatName(CycleCat cat);

/** @return Stable snake_case name used in JSON and metric labels. */
const char *profRayTypeName(ProfRayType type);

/**
 * Cycle-attribution profiler. One instance observes one simulation
 * run between attach() and finish(); counts (and elapsed cycles)
 * accumulate across runs until clear(), so the conservation law keeps
 * holding for multi-run aggregation.
 */
class CycleProfiler
{
public:
    /** Per-SM attribution slice plus its span-accounting state. */
    struct SmSlice
    {
        //!< cycles[cat][rayType], exclusive and exhaustive.
        std::uint64_t cycles[kCycleCatCount][kProfRayTypeCount] = {};
        // Non-conserved event tallies (meta), fed by the unit probes.
        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t predLookups = 0;
        std::uint64_t predHits = 0;
        std::uint64_t repackFlushes = 0;
        std::uint64_t repackRays = 0;
        // Span-accounting state (reset by attach()).
        Cycle cursor = 0; //!< next unaccounted cycle
        CycleCat pendingWait = CycleCat::IdleDrain;
        ProfRayType pendingWaitType = ProfRayType::None;
        CycleCat execCat = CycleCat::WarpIssue;
        ProfRayType execType = ProfRayType::None;
        bool execNoted = false;
        std::uint8_t deepestLevel = 0; //!< 0 none, 1 L1, 2 L2, 3 DRAM
    };

    /**
     * Begin observing a run over @p numSms SMs. Resets the per-SM
     * span state (cursor back to cycle 0) but keeps accumulated
     * counts, so a profiler may observe several runs in sequence.
     */
    void attach(std::uint32_t numSms);

    /** @return true between attach() and finish(). */
    bool
    attached() const
    {
        return attached_;
    }

    /**
     * An RtUnit event for @p sm popped at @p now: close the wait gap
     * [cursor, now) under the pending wait category. Same-cycle
     * re-entry (now < cursor) is a no-op.
     */
    void onEvent(std::uint32_t sm, Cycle now);

    /**
     * The current step's first unit of work was of kind @p cat for a
     * ray of type @p type. First call per step wins; cleared by
     * closeStep().
     */
    void
    noteExec(std::uint32_t sm, CycleCat cat, ProfRayType type)
    {
        SmSlice &s = slices_[sm];
        if (!s.execNoted) {
            s.execCat = cat;
            s.execType = type;
            s.execNoted = true;
        }
    }

    /** @return true if noteExec has run since the last closeStep. */
    bool
    execNoted(std::uint32_t sm) const
    {
        return slices_[sm].execNoted;
    }

    /**
     * A memory access issued during the current step was served by
     * @p level (1 = L1, 2 = L2, 3 = DRAM). The deepest level touched
     * decides the following stall category.
     */
    void
    noteMemLevel(std::uint32_t sm, std::uint8_t level)
    {
        SmSlice &s = slices_[sm];
        if (level > s.deepestLevel)
            s.deepestLevel = level;
    }

    /**
     * Close the step that ran at @p now: charge [now, now+1) to the
     * noted execution category (or, for workless stall steps, extend
     * the pending wait), then re-arm the pending wait category from
     * what the step did — deepest memory level touched wins, else a
     * productive step waits on its own compute latency, else a stall
     * with @p collectorPending rays parked waits on repack, else the
     * previous wait reason persists.
     */
    void closeStep(std::uint32_t sm, Cycle now, bool didWork,
                   bool collectorPending);

    /**
     * End of run at @p endCycle (SimResult::cycles): close every SM's
     * trailing span [cursor, endCycle + 1) as IdleDrain and detach.
     * The per-run elapsed time (endCycle + 1 cycles: cycle endCycle is
     * the last one charged) is added to elapsed().
     */
    void finish(Cycle endCycle);

    // ------------------------------------------------------------------
    // Meta tallies (not part of the conservation law; they feed the
    // cost/benefit section of `rtp_report cycles`).

    /** L1 probe: @p unit's private L1 access, hit or miss. */
    void
    noteL1Access(std::uint32_t unit, bool hit)
    {
        SmSlice &s = slices_[unit];
        if (hit)
            ++s.l1Hits;
        else
            ++s.l1Misses;
    }

    /** Shared-L2 probe; only called inside the gated shard seam. */
    void
    noteL2Access(bool hit)
    {
        if (hit)
            ++l2Hits_;
        else
            ++l2Misses_;
    }

    /** DRAM probe; only called inside the gated shard seam. */
    void
    noteDramAccess(bool rowHit)
    {
        ++dramAccesses_;
        if (rowHit)
            ++dramRowHits_;
    }

    /** Predictor probe: one table lookup, hit or miss. */
    void
    notePredictorLookup(std::uint32_t unit, bool hit)
    {
        SmSlice &s = slices_[unit];
        ++s.predLookups;
        if (hit)
            ++s.predHits;
    }

    /** Collector probe: a partial-warp flush of @p rays rays. */
    void
    noteRepackFlush(std::uint32_t unit, std::uint32_t rays)
    {
        SmSlice &s = slices_[unit];
        ++s.repackFlushes;
        s.repackRays += rays;
    }

    // ------------------------------------------------------------------
    // Results.

    /** @return SM count pinned at attach time. */
    std::uint32_t
    numSms() const
    {
        return static_cast<std::uint32_t>(slices_.size());
    }

    /** @return Accumulated elapsed cycles (sum over observed runs). */
    Cycle
    elapsed() const
    {
        return elapsed_;
    }

    /** @return Number of runs finished so far. */
    std::uint64_t
    runs() const
    {
        return runs_;
    }

    /** @return Attributed cycles for (@p sm, @p cat, @p type). */
    std::uint64_t cycles(std::uint32_t sm, CycleCat cat,
                         ProfRayType type) const;

    /** @return Attributed cycles for @p cat summed over SMs/types. */
    std::uint64_t totalFor(CycleCat cat) const;

    /** @return Per-SM sum over all categories and ray types. */
    std::uint64_t smTotal(std::uint32_t sm) const;

    /** Read-only access to a per-SM slice (for tests and export). */
    const SmSlice &
    slice(std::uint32_t sm) const
    {
        return slices_[sm];
    }

    /**
     * Assert the conservation law through @p check: for every SM the
     * category counts sum exactly to elapsed(). Driven by the
     * simulator after finish() when both observers are attached, and
     * by simfuzz.
     */
    void checkConservation(InvariantChecker &check) const;

    /**
     * Serialise the full attribution table as deterministic JSON
     * (schema_version stamped; fixed catalogue order; no timing
     * fields), the input format of `rtp_report cycles`.
     */
    std::string toJson() const;

    /** Write toJson() to @p os. */
    void writeJson(std::ostream &os) const;

    /** Reset everything (counts, meta, span state, elapsed). */
    void clear();

private:
    std::vector<SmSlice> slices_;
    std::uint64_t l2Hits_ = 0;
    std::uint64_t l2Misses_ = 0;
    std::uint64_t dramAccesses_ = 0;
    std::uint64_t dramRowHits_ = 0;
    Cycle elapsed_ = 0;
    std::uint64_t runs_ = 0;
    bool attached_ = false;

    void addSpan(SmSlice &s, CycleCat cat, ProfRayType type,
                 std::uint64_t n);
};

} // namespace rtp
