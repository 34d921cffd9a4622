/**
 * @file
 * Warp repacking: the partial warp collector (Section 4.4, Figure 10).
 *
 * After predictor lookups, predicted rays are pulled out of their warp
 * and queued in this collector, which only stores ray IDs. When 32 IDs
 * have accumulated, or a short timeout expires, they are emitted as a new
 * repacked warp. The structure holds up to 64 IDs so a freshly arriving
 * warp's predictions can overflow past a full batch of 32.
 */

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "mem/cache.hpp" // Cycle
#include "util/observers.hpp"
#include "util/stats.hpp"

namespace rtp {

struct TelemetrySmSample;

/** Collector configuration. */
struct RepackerConfig
{
    std::uint32_t warpSize = 32;
    std::uint32_t capacity = 64; //!< max buffered ray IDs
    Cycle timeout = 16;          //!< cycles before a partial warp flushes
};

/** The partial warp collector. */
class PartialWarpCollector
{
  public:
    /** @p unit = the owning SM, stamped on trace and profile probes. */
    explicit PartialWarpCollector(const RepackerConfig &config = {},
                                  std::uint16_t unit = 0)
        : config_(config), unit_(unit)
    {}

    /**
     * Add predicted ray IDs at @p cycle.
     * @return Any full warps (exactly warpSize IDs each) ready to
     *         dispatch immediately.
     */
    std::vector<std::vector<std::uint32_t>> add(
        const std::vector<std::uint32_t> &ray_ids, Cycle cycle);

    /**
     * Flush a partial warp if the timeout has expired by @p cycle.
     * @return The flushed (possibly partial) warp, or an empty vector.
     */
    std::vector<std::uint32_t> flushIfExpired(Cycle cycle);

    /** Flush whatever is pending regardless of timeout (drain at end). */
    std::vector<std::uint32_t> flushAll();

    /** @return Cycle at which the current contents time out, or 0. */
    Cycle
    deadline() const
    {
        return pending_.empty()
                   ? 0
                   : pending_.front().addedAt + config_.timeout;
    }

    /**
     * @return Insertion cycle of the oldest remaining pending ray
     *         (the cycle anchoring the flush timeout), or 0 if empty.
     * The timeout must follow each ray's own insertion cycle: anchoring
     * it to the cycle of the latest warp formation would restart the
     * timer for leftover rays and let an unlucky ray wait far beyond
     * config_.timeout.
     */
    Cycle
    oldestPendingCycle() const
    {
        return pending_.empty() ? 0 : pending_.front().addedAt;
    }

    std::size_t
    pendingCount() const
    {
        return pending_.size();
    }

    /**
     * Attach observers (an empty bundle detaches). Collections and
     * flushes are traced; every emitted warp (full, timeout, or drain)
     * bumps the repack meta tallies of util/profile.hpp; and every
     * add/flush re-verifies ray conservation: IDs in == IDs out + IDs
     * pending, i.e. the repacker neither drops nor duplicates rays.
     */
    void
    attach(const Observers &obs)
    {
        obs_ = obs;
    }

    /**
     * End-of-run sweep: the collector must be empty (with zero rays
     * remaining, pending IDs could never complete) and must never have
     * dropped an ID on overflow (a dropped ID is a ray that hangs the
     * simulation when capacity is tight).
     */
    void checkFinalState(InvariantChecker &check) const;

    /**
     * Telemetry probe: record the instantaneous collector queue depth
     * into the owning SM's sample row. Pure observer.
     */
    void snapshotInto(TelemetrySmSample &out) const;

    const StatGroup &
    stats() const
    {
        return stats_;
    }

  private:
    /** One buffered ray ID plus the cycle it entered the collector. */
    struct Pending
    {
        std::uint32_t id;
        Cycle addedAt;
    };

    void checkConservation(const char *site) const;

    RepackerConfig config_;
    std::deque<Pending> pending_;
    StatGroup stats_;
    std::uint16_t unit_;
    Observers obs_;
    // Conservation ledger: plain members, not StatGroup counters, so
    // the stats JSON stays byte-identical with checking off (the
    // zero-perturbation contract). Cheap enough to maintain always.
    std::uint64_t collectedIds_ = 0; //!< IDs accepted into pending_
    std::uint64_t emittedIds_ = 0;   //!< IDs handed out in warps
    std::uint64_t droppedIds_ = 0;   //!< IDs lost to overflow
};

} // namespace rtp
