/**
 * @file
 * The full memory hierarchy: one L1 per SM, a shared L2, banked DRAM
 * (Table 2 configuration). The RT unit is multiplexed onto the L1 like the
 * LDST unit (Section 5.1.4).
 */

#pragma once

#include <memory>
#include <vector>

#include "mem/cache.hpp"
#include "mem/dram.hpp"
#include "util/observers.hpp"

namespace rtp {

struct TelemetryGlobalSample;
class ShardGate;

/** Where a request was ultimately served from. */
enum class MemLevel : std::uint8_t
{
    L1,
    L2,
    Dram,
};

/** Result of a timed hierarchy access. */
struct MemAccess
{
    Cycle readyCycle = 0;
    MemLevel servedBy = MemLevel::L1;
    bool l1MshrMerged = false;
};

/** Memory hierarchy configuration. */
struct MemoryConfig
{
    /**
     * L1 hit latency: Section 5.1.5's one-cycle L1 access plus the
     * request-queue, tag, and ray-buffer-return pipeline around it.
     * Issue-slot occupancy is charged separately by the RT unit's
     * port model.
     */
    CacheConfig l1{64 * 1024, 128, 0, 6, "l1"};   //!< fully assoc LRU
    CacheConfig l2{1024 * 1024, 128, 16, 1, "l2"}; //!< 16-way LRU
    Cycle l1ToL2Latency = 90;   //!< interconnect + L2 pipeline
    Cycle l2ToDramLatency = 100; //!< off-chip command latency
    DramConfig dram;
    bool l2Enabled = true;
};

/** Per-SM L1s in front of a shared L2 and DRAM. */
class MemorySystem
{
  public:
    MemorySystem(const MemoryConfig &config, std::uint32_t num_sms);

    /**
     * Timed access from one SM's RT unit.
     * @param sm Index of the issuing SM.
     * @param addr Byte address.
     * @param cycle Issue cycle.
     */
    MemAccess access(std::uint32_t sm, std::uint64_t addr, Cycle cycle);

    CacheModel &
    l1(std::uint32_t sm)
    {
        return *l1s_[sm];
    }

    CacheModel &
    l2()
    {
        return *l2_;
    }

    DramModel &
    dram()
    {
        return dram_;
    }

    const MemoryConfig &
    config() const
    {
        return config_;
    }

    /**
     * Attach one observer bundle (an empty bundle detaches) to every
     * L1, the L2 and the DRAM. The level that served each access goes
     * to the profiler's L1/L2/DRAM stall classification in the issuing
     * SM's slice. Trace events carry fixed ids: L1 i is unit i at level
     * 1, the L2 unit 0 at level 2, DRAM its bank index.
     */
    void attach(const Observers &obs);

    /**
     * Attach the sharded event loop's ordering gate (nullptr detaches).
     * While attached, every true L1 miss — the only path into the
     * shared L2/DRAM — first calls gate->waitTurn(sm), so cross-SM
     * requests reach the shared levels in the exact (cycle, sm) order
     * of the sequential loop. Per-SM L1 state needs no gating: each L1
     * is only ever touched by the worker owning its SM.
     */
    void
    setShardGate(ShardGate *gate)
    {
        gate_ = gate;
    }

    /** End-of-run sweep over every L1 and the L2 (when enabled). */
    void checkFinalState(InvariantChecker &check) const;

    /**
     * Telemetry probe: fill the shared-memory portion of @p out (the
     * L2's cumulative counters plus the DRAM probe at cycle @p at).
     * Per-SM L1s are sampled through RtUnit::snapshotInto. Pure
     * observer.
     */
    void snapshotInto(TelemetryGlobalSample &out, Cycle at) const;

    /** Per-SM L1 probe access for the RT unit's telemetry snapshot. */
    const CacheModel &
    l1(std::uint32_t sm) const
    {
        return *l1s_[sm];
    }

    /** Aggregate counters and histograms across all levels into one
     *  group under "l1." / "l2." / "dram." prefixes. */
    StatGroup aggregateStats() const;

    void clearStats();

  private:
    MemoryConfig config_;
    std::vector<std::unique_ptr<CacheModel>> l1s_;
    std::unique_ptr<CacheModel> l2_;
    DramModel dram_;
    ShardGate *gate_ = nullptr; //!< sharded loop only
    Observers observers_;
};

} // namespace rtp
