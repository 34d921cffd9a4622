/**
 * @file
 * Timed set-associative LRU cache model with MSHR-style fill merging.
 *
 * Models the paper's L1 (64 KB, 128 B lines, fully associative LRU) and L2
 * (1 MB, 128 B lines, 16-way LRU) from Table 2. Timing is ready-cycle
 * based: an access returns the cycle its data is available; misses that
 * land on an in-flight fill merge into it (MSHR behaviour) instead of
 * issuing a duplicate downstream request.
 *
 * Lookup is O(1) regardless of associativity: each set keeps a tag→way
 * hash map plus an intrusive doubly-linked LRU list over way indices, so
 * the fully associative L1 (512 ways) costs the same per access as a
 * small set-associative cache. Victim selection walks the list from the
 * LRU end exactly as the original list-based model did, preserving
 * replacement decisions bit-for-bit.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/observers.hpp"
#include "util/stats.hpp"

namespace rtp {

/** Cycle count type used by all timing models. */
using Cycle = std::uint64_t;

/** Configuration of one cache level. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t lineBytes = 128;
    std::uint32_t ways = 0;      //!< 0 = fully associative
    Cycle hitLatency = 1;        //!< cycles from access to data on a hit
    std::string name = "cache";
};

/** Result of a timed cache access. */
struct CacheAccess
{
    bool hit = false;        //!< line present and filled
    bool merged = false;     //!< miss merged into an in-flight fill
    Cycle readyCycle = 0;    //!< cycle the data is available
};

/**
 * Non-owning reference to a fill callable (context pointer + function
 * pointer). CacheModel::access runs millions of times per simulated
 * frame; a std::function parameter pays manager/allocation overhead on
 * every call, while FillRef binds any callable for free. The referenced
 * callable must outlive the access() call (always true for the
 * MemorySystem lambdas and test fixtures that use it).
 */
class FillRef
{
  public:
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cv_t<std::remove_reference_t<F>>,
                  FillRef>>>
    FillRef(const F &f)
        : ctx_(const_cast<void *>(static_cast<const void *>(&f))),
          fn_([](void *ctx, std::uint64_t line_addr, Cycle cycle) {
              return (*static_cast<const F *>(ctx))(line_addr, cycle);
          })
    {}

    Cycle
    operator()(std::uint64_t line_addr, Cycle cycle) const
    {
        return fn_(ctx_, line_addr, cycle);
    }

  private:
    void *ctx_;
    Cycle (*fn_)(void *, std::uint64_t, Cycle);
};

/**
 * One cache level. The downstream level is abstracted as a callback that
 * returns the fill-complete cycle for a missing line.
 */
class CacheModel
{
  public:
    /**
     * Owning fill-callback type; kept for callers that store a fill
     * function. access() itself takes a FillRef, which any FillFn (or
     * plain lambda) converts to implicitly.
     */
    using FillFn = std::function<Cycle(std::uint64_t line_addr,
                                       Cycle cycle)>;

    /**
     * @p unit and @p level identify this cache instance on trace and
     * profile probes: an L1 is its owning SM's unit at level 1, the
     * shared L2 is unit 0 at level 2.
     */
    explicit CacheModel(CacheConfig config, std::uint16_t unit = 0,
                        std::uint16_t level = 1);

    /**
     * Access one address at @p cycle.
     * @param addr Byte address (any offset within a line).
     * @param cycle Current cycle.
     * @param fill Invoked on a true miss to obtain the fill-ready cycle.
     */
    CacheAccess access(std::uint64_t addr, Cycle cycle, FillRef fill);

    /** @return true if the line holding @p addr is resident (untimed). */
    bool contains(std::uint64_t addr) const;

    /**
     * Attach observers (an empty bundle detaches). Hits, misses, MSHR
     * merges and bypasses are traced; the profiler gets the hit/miss
     * meta tallies of util/profile.hpp (an L1 reports into its owning
     * SM's slice, safe for the sharded loop since only that SM's
     * worker touches it; the shared L2 is only probed inside the
     * ShardGate's serialised seam); and the checker verifies every
     * access (never both a hit and an MSHR merge, data never ready
     * before the access issued) and counts accesses so the end-of-run
     * sweep can balance the books. A different checker restarts that
     * count.
     */
    void
    attach(const Observers &obs)
    {
        if (obs.check != obs_.check)
            accessesChecked_ = 0;
        obs_ = obs;
    }

    /**
     * Statistics: hits, misses, mshr_merges, evictions,
     * inflight_victim_skips (victim selection passed over >= 1 line
     * whose fill was still in flight), inflight_bypasses (every way in
     * flight; the access was served downstream without allocating).
     * Histogram: miss_latency (fill cycles per true miss).
     */
    const StatGroup &
    stats() const
    {
        return stats_;
    }

    void
    clearStats()
    {
        stats_.clear();
    }

    /**
     * Telemetry probe: copy the cumulative hit/miss/MSHR-merge counters
     * (three enum-indexed array reads — cheap enough for interval
     * sampling, see util/telemetry.hpp). Pure observer.
     */
    void
    snapshotInto(std::uint64_t &hits, std::uint64_t &misses,
                 std::uint64_t &mshr_merges) const
    {
        hits = stats_.get(StatId::Hits);
        misses = stats_.get(StatId::Misses);
        mshr_merges = stats_.get(StatId::MshrMerges);
    }

    const CacheConfig &
    config() const
    {
        return config_;
    }

    /** Empty the cache (keeps statistics). */
    void reset();

    /**
     * End-of-run sweep: every access must be accounted exactly once as
     * a hit, an MSHR merge, or a miss, and secondary counters must stay
     * within their parents (bypasses and evictions are kinds of miss).
     */
    void checkFinalState(InvariantChecker &check) const;

  private:
    /** Sentinel for "no way" in the intrusive LRU links. */
    static constexpr std::uint32_t kNoWay = ~0u;

    struct Line
    {
        std::uint64_t tag = 0;
        Cycle readyAt = 0; //!< fill-complete cycle (in-flight if > now)
        bool valid = false;
    };

    struct Set
    {
        std::vector<Line> lines;
        // Intrusive LRU list over way indices: head = MRU, tail = LRU.
        std::vector<std::uint32_t> prev, next;
        std::uint32_t head = kNoWay, tail = kNoWay;
        // Valid lines only; erased on eviction and reset().
        std::unordered_map<std::uint64_t, std::uint32_t> tagToWay;
    };

    void unlink(Set &set, std::uint32_t way);
    void moveToFront(Set &set, std::uint32_t way);

    std::uint64_t
    lineAddr(std::uint64_t addr) const
    {
        return addr / config_.lineBytes;
    }

    CacheConfig config_;
    std::uint32_t numSets_ = 1;
    std::uint32_t waysPerSet_ = 1;
    std::vector<Set> sets_;
    void checkAccess(const CacheAccess &res, Cycle cycle);

    /** Profiler meta-tally probe at the hit/miss decision sites. */
    void noteProfile(bool hit);

    StatGroup stats_;
    std::uint16_t unit_;
    std::uint16_t level_;
    Observers obs_;
    std::uint64_t accessesChecked_ = 0; //!< only counted while checking
};

} // namespace rtp
