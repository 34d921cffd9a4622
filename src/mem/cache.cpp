#include "mem/cache.hpp"

#include <algorithm>
#include <string>

#include "util/check.hpp"
#include "util/profile.hpp"
#include "util/trace.hpp"

namespace rtp {

void
CacheModel::noteProfile(bool hit)
{
    if (level_ == 1)
        obs_.profile->noteL1Access(unit_, hit);
    else
        obs_.profile->noteL2Access(hit);
}

void
CacheModel::checkAccess(const CacheAccess &res, Cycle cycle)
{
    accessesChecked_++;
    obs_.check->require(!(res.hit && res.merged), "CacheModel",
                        "an access is never both a hit and an MSHR merge",
                        [&] { return "cache " + config_.name; });
    obs_.check->require(
        res.readyCycle >= cycle, "CacheModel",
        "data is never ready before the access issued", [&] {
            return "cache " + config_.name + ": issued at cycle " +
                   std::to_string(cycle) + ", ready at " +
                   std::to_string(res.readyCycle);
        });
}

void
CacheModel::checkFinalState(InvariantChecker &check) const
{
    std::uint64_t hits = stats_.get(StatId::Hits);
    std::uint64_t merges = stats_.get(StatId::MshrMerges);
    std::uint64_t misses = stats_.get(StatId::Misses);
    check.require(
        hits + merges + misses == accessesChecked_, "CacheModel",
        "every access is exactly one hit, MSHR merge, or miss", [&] {
            return "cache " + config_.name + ": hits " +
                   std::to_string(hits) + " + merges " +
                   std::to_string(merges) + " + misses " +
                   std::to_string(misses) + " != accesses " +
                   std::to_string(accessesChecked_);
        });
    std::uint64_t bypasses = stats_.get(StatId::InflightBypasses);
    std::uint64_t evictions = stats_.get(StatId::Evictions);
    check.require(bypasses + evictions <= misses, "CacheModel",
                  "bypasses and evictions are disjoint kinds of miss",
                  [&] {
                      return "cache " + config_.name + ": bypasses " +
                             std::to_string(bypasses) + " + evictions " +
                             std::to_string(evictions) + " > misses " +
                             std::to_string(misses);
                  });
}

CacheModel::CacheModel(CacheConfig config, std::uint16_t unit,
                       std::uint16_t level)
    : config_(std::move(config)), unit_(unit), level_(level)
{
    std::uint32_t num_lines =
        std::max(1u, config_.sizeBytes / config_.lineBytes);
    waysPerSet_ = config_.ways == 0 ? num_lines
                                    : std::min(config_.ways, num_lines);
    numSets_ = std::max(1u, num_lines / waysPerSet_);
    sets_.resize(numSets_);
    for (auto &set : sets_) {
        set.lines.resize(waysPerSet_);
        set.prev.resize(waysPerSet_);
        set.next.resize(waysPerSet_);
        // Initial LRU order matches the original list model: way 0 at
        // the MRU end down to way N-1 at the LRU end.
        for (std::uint32_t w = 0; w < waysPerSet_; ++w) {
            set.prev[w] = w == 0 ? kNoWay : w - 1;
            set.next[w] = w + 1 == waysPerSet_ ? kNoWay : w + 1;
        }
        set.head = 0;
        set.tail = waysPerSet_ - 1;
        set.tagToWay.reserve(waysPerSet_ * 2);
    }
}

void
CacheModel::unlink(Set &set, std::uint32_t way)
{
    if (set.prev[way] != kNoWay)
        set.next[set.prev[way]] = set.next[way];
    else
        set.head = set.next[way];
    if (set.next[way] != kNoWay)
        set.prev[set.next[way]] = set.prev[way];
    else
        set.tail = set.prev[way];
}

void
CacheModel::moveToFront(Set &set, std::uint32_t way)
{
    if (set.head == way)
        return;
    unlink(set, way);
    set.prev[way] = kNoWay;
    set.next[way] = set.head;
    set.prev[set.head] = way;
    set.head = way;
}

CacheAccess
CacheModel::access(std::uint64_t addr, Cycle cycle, FillRef fill)
{
    std::uint64_t line = lineAddr(addr);
    Set &set = sets_[line % numSets_];
    std::uint64_t tag = line / numSets_;

    auto found = set.tagToWay.find(tag);
    if (found != set.tagToWay.end()) {
        std::uint32_t way = found->second;
        Line &l = set.lines[way];
        // Promote to MRU.
        moveToFront(set, way);
        CacheAccess res;
        if (l.readyAt > cycle) {
            // Fill still in flight: merge into it (MSHR behaviour).
            res.merged = true;
            res.readyCycle = l.readyAt + config_.hitLatency;
            stats_.inc(StatId::MshrMerges);
            if (obs_.trace)
                obs_.trace->emit({cycle, 0,
                                  TraceEventKind::CacheMshrMerge,
                                  unit_, level_, addr,
                                  l.readyAt - cycle});
        } else {
            res.hit = true;
            res.readyCycle = cycle + config_.hitLatency;
            stats_.inc(StatId::Hits);
            if (obs_.profile)
                noteProfile(true);
            if (obs_.trace)
                obs_.trace->emit({cycle, 0, TraceEventKind::CacheHit,
                                  unit_, level_, addr,
                                  config_.hitLatency});
        }
        if (obs_.check)
            checkAccess(res, cycle);
        return res;
    }

    // Miss: allocate the least recently used way whose line is NOT an
    // in-flight fill. Overwriting an in-flight line would orphan the
    // MSHR accesses merged into it — their tag disappears mid-fill, so
    // a later access to that line starts a duplicate fetch for data
    // already on its way, and the line's ready time gets silently
    // replaced by the new fill's.
    stats_.inc(StatId::Misses);
    if (obs_.profile)
        noteProfile(false);
    std::uint32_t victim = kNoWay;
    bool skipped_inflight = false;
    for (std::uint32_t w = set.tail; w != kNoWay; w = set.prev[w]) {
        const Line &cand = set.lines[w];
        if (cand.valid && cand.readyAt > cycle) {
            skipped_inflight = true;
            continue;
        }
        victim = w;
        break;
    }
    if (skipped_inflight)
        stats_.inc(StatId::InflightVictimSkips);

    if (victim == kNoWay) {
        // Every way holds an in-flight fill: serve this request from
        // downstream without allocating (bypass), leaving the fills
        // and their merged waiters intact.
        stats_.inc(StatId::InflightBypasses);
        Cycle fill_ready = fill(line * config_.lineBytes, cycle);
        stats_.addSample(HistId::MissLatency, fill_ready - cycle);
        if (obs_.trace)
            obs_.trace->emit({cycle, 0,
                              TraceEventKind::CacheInflightBypass,
                              unit_, level_, addr,
                              fill_ready - cycle});
        CacheAccess res;
        res.readyCycle = fill_ready + config_.hitLatency;
        if (obs_.check)
            checkAccess(res, cycle);
        return res;
    }

    moveToFront(set, victim);
    Line &l = set.lines[victim];
    if (l.valid) {
        stats_.inc(StatId::Evictions);
        set.tagToWay.erase(l.tag);
    }
    l.valid = true;
    l.tag = tag;
    set.tagToWay.emplace(tag, victim);
    l.readyAt = fill(line * config_.lineBytes, cycle);
    stats_.addSample(HistId::MissLatency, l.readyAt - cycle);
    if (obs_.trace)
        obs_.trace->emit({cycle, 0, TraceEventKind::CacheMiss, unit_,
                          level_, addr, l.readyAt - cycle});

    CacheAccess res;
    res.readyCycle = l.readyAt + config_.hitLatency;
    if (obs_.check)
        checkAccess(res, cycle);
    return res;
}

bool
CacheModel::contains(std::uint64_t addr) const
{
    std::uint64_t line = lineAddr(addr);
    const Set &set = sets_[line % numSets_];
    std::uint64_t tag = line / numSets_;
    auto it = set.tagToWay.find(tag);
    return it != set.tagToWay.end() && set.lines[it->second].valid;
}

void
CacheModel::reset()
{
    // Invalidate contents but keep each set's LRU order, matching the
    // original model's reset() (which only cleared valid bits).
    for (auto &set : sets_) {
        for (auto &l : set.lines)
            l.valid = false;
        set.tagToWay.clear();
    }
}

} // namespace rtp
