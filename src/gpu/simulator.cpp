#include "gpu/simulator.hpp"

#include "gpu/differential.hpp"
#include "gpu/shard.hpp"
#include "util/check.hpp"
#include "util/profile.hpp"
#include "util/schema.hpp"
#include "util/telemetry.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace rtp {

double
SimResult::predictedRate() const
{
    auto done = stats.get("rays_completed");
    return done ? static_cast<double>(stats.get("rays_predicted")) / done
                : 0.0;
}

double
SimResult::verifiedRate() const
{
    auto done = stats.get("rays_completed");
    return done ? static_cast<double>(stats.get("rays_verified")) / done
                : 0.0;
}

double
SimResult::hitRate() const
{
    auto done = stats.get("rays_completed");
    return done ? static_cast<double>(stats.get("rays_hit")) / done : 0.0;
}

std::uint64_t
SimResult::totalMemAccesses() const
{
    return stats.get("ray_node_fetches") +
           stats.get("ray_tri_fetches") + stats.get("stack_spills");
}

std::uint64_t
SimResult::postMergeAccesses() const
{
    return stats.get("mem_node_accesses") +
           stats.get("mem_tri_accesses") +
           stats.get("mem_stack_accesses");
}

void
SimResult::toJson(std::ostream &os) const
{
    auto num = [&os](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        os << buf;
    };
    os << "{\"schema_version\":" << kResultSchemaVersion;
    os << ",\"cycles\":" << cycles;
    os << ",\"rays\":" << rayResults.size();
    os << ",\"predicted_rate\":";
    num(predictedRate());
    os << ",\"verified_rate\":";
    num(verifiedRate());
    os << ",\"hit_rate\":";
    num(hitRate());
    os << ",\"total_mem_accesses\":" << totalMemAccesses();
    os << ",\"post_merge_accesses\":" << postMergeAccesses();
    os << ",\"simt_efficiency\":";
    num(simtEfficiency);
    os << ",\"avg_busy_banks\":";
    num(avgBusyBanks);
    os << ",\"stats\":";
    stats.toJson(os);
    os << ",\"mem_stats\":";
    memStats.toJson(os);
    os << "}";
}

std::string
SimResult::toJson() const
{
    std::ostringstream os;
    toJson(os);
    return os.str();
}

namespace {

/** Per-SM ray assignment produced by distributeRays. */
struct RayDistribution
{
    std::vector<std::vector<Ray>> rays;
    std::vector<std::vector<std::uint32_t>> ids;
};

/**
 * Round-robin warp-sized chunks across SMs, preserving intra-chunk ray
 * order (consecutive rays share a warp, like consecutive threads of
 * the CUDA kernel in Section 5.1.1). Per-SM counts are precomputed so
 * each vector is reserved exactly once instead of growing push-by-push
 * on every run.
 */
RayDistribution
distributeRays(const std::vector<Ray> &rays, std::uint32_t warp,
               std::uint32_t num_sms)
{
    RayDistribution d;
    d.rays.resize(num_sms);
    d.ids.resize(num_sms);

    std::vector<std::size_t> counts(num_sms, 0);
    std::uint32_t chunk = 0;
    for (std::size_t i = 0; i < rays.size(); i += warp, ++chunk)
        counts[chunk % num_sms] += std::min<std::size_t>(
            warp, rays.size() - i);
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        d.rays[s].reserve(counts[s]);
        d.ids[s].reserve(counts[s]);
    }

    chunk = 0;
    for (std::size_t i = 0; i < rays.size(); i += warp, ++chunk) {
        std::uint32_t sm = chunk % num_sms;
        for (std::size_t j = i; j < std::min(rays.size(), i + warp);
             ++j) {
            d.rays[sm].push_back(rays[j]);
            d.ids[sm].push_back(static_cast<std::uint32_t>(j));
        }
    }

    std::size_t distributed = 0;
    for (std::uint32_t s = 0; s < num_sms; ++s)
        distributed += d.rays[s].size();
    assert(distributed == rays.size() &&
           "every submitted ray must be assigned to exactly one SM");
    if (distributed != rays.size())
        throw std::logic_error(
            "distributeRays: distributed " +
            std::to_string(distributed) + " of " +
            std::to_string(rays.size()) + " rays");
    return d;
}

/** Stuck-unit failure, with everything a reproducer needs. */
[[noreturn]] void
throwStuckUnit(std::uint32_t sm, Cycle now, std::uint64_t outstanding)
{
    throw std::runtime_error(
        "runEventLoop: RT unit for SM " + std::to_string(sm) +
        " is stuck — unfinished with an empty event queue at cycle " +
        std::to_string(now) + " (" + std::to_string(outstanding) +
        " outstanding rays)");
}

/**
 * Attach one observer bundle to every RT unit (which forwards it to its
 * buffer, queue, collector and predictor) and to the memory system; an
 * empty @p obs detaches everything.
 */
void
attachObservers(std::vector<std::unique_ptr<RtUnit>> &units,
                MemorySystem &mem, const Observers &obs)
{
    for (auto &unit : units)
        unit->attach(obs);
    mem.attach(obs);
}

/**
 * The sequential reference event loop: always advance the SM with the
 * earliest pending event, ties to the lowest SM index. The sharded
 * loop reproduces exactly this order at the shared-memory seam, so
 * this loop stays selectable (simThreads = 1) as the equivalence
 * baseline; it also runs every traced or sampled run.
 */
void
runSequentialLoop(std::vector<std::unique_ptr<RtUnit>> &units,
                  TelemetrySampler *telemetry)
{
    // A unit only ever pushes events into its OWN queue, so once the
    // leader is chosen it can be stepped repeatedly — without
    // rescanning — until its next event is no longer globally
    // earliest. Ties break to the lowest SM index, exactly as a full
    // rescan would.
    std::size_t n = units.size();
    Cycle sim_now = 0; //!< cycle of the most recently chosen event
    while (true) {
        RtUnit *next = nullptr;
        std::size_t next_idx = 0;
        Cycle best = ~0ull;
        bool any_unfinished = false;
        std::uint64_t outstanding = 0;
        for (std::size_t i = 0; i < n; ++i) {
            RtUnit *rt = units[i].get();
            if (rt->finished())
                continue;
            any_unfinished = true;
            outstanding += rt->outstandingRays();
            // An unfinished unit with no pending events can never make
            // progress; without this check the loop would either read
            // an empty priority queue (undefined behaviour in release
            // builds) or spin forever. Fail loudly instead.
            if (!rt->hasEvents())
                throwStuckUnit(static_cast<std::uint32_t>(i), sim_now,
                               rt->outstandingRays());
            Cycle c = rt->nextEventCycle();
            if (c < best) {
                best = c;
                next = rt;
                next_idx = i;
            }
        }
        if (!next) {
            if (any_unfinished)
                throw std::runtime_error(
                    "runEventLoop: no runnable RT unit but rays "
                    "remain at cycle " +
                    std::to_string(sim_now) + " (" +
                    std::to_string(outstanding) +
                    " outstanding rays)");
            break;
        }
        sim_now = best;

        // Runner-up: the earliest event among the OTHER units. Frozen
        // during the batch because no other unit's queue can change.
        Cycle others = ~0ull;
        std::size_t others_idx = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (i == next_idx || units[i]->finished())
                continue;
            Cycle c = units[i]->nextEventCycle();
            if (c < others) {
                others = c;
                others_idx = i;
            }
        }

        do {
            // The leader's next event is the globally earliest, so
            // every event before a period boundary has been processed
            // by the time the boundary is crossed here: each sample
            // observes a deterministic start-of-cycle state regardless
            // of batching.
            if (telemetry)
                telemetry->sampleUpTo(next->nextEventCycle());
            next->step();
        } while (!next->finished() && next->hasEvents() &&
                 (next->nextEventCycle() < others ||
                  (next->nextEventCycle() == others &&
                   next_idx < others_idx)));
    }
}

/**
 * The sharded event loop: each worker owns the SMs congruent to its
 * index mod the worker count and runs them to completion with the same
 * local earliest-(cycle, sm) rule the sequential loop uses globally.
 * Shared L2/DRAM accesses synchronise through the ShardGate (see
 * gpu/shard.hpp), so the shared levels observe the exact sequential
 * order and the result, the profile and the checker's probes are
 * byte-identical to simThreads = 1. Traced and sampled runs never get
 * here (see runEventLoop).
 */
void
runShardedLoop(std::vector<std::unique_ptr<RtUnit>> &units,
               MemorySystem &mem, std::uint32_t num_workers)
{
    const std::uint32_t num_sms =
        static_cast<std::uint32_t>(units.size());
    ShardGate gate(num_sms);

    // Initial progress: next event cycle, or done for idle SMs.
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        RtUnit *rt = units[s].get();
        if (rt->finished())
            gate.setProgress(s, ShardGate::kDone);
        else if (!rt->hasEvents())
            throwStuckUnit(s, 0, rt->outstandingRays());
        else
            gate.setProgress(s, rt->nextEventCycle());
    }

    // Local leader-stepping over worker @p w's SMs until all finish.
    auto run_shard = [&](std::uint32_t w) {
        std::vector<std::uint32_t> mine;
        for (std::uint32_t s = w; s < num_sms; s += num_workers)
            mine.push_back(s);
        Cycle last_stepped = 0;
        while (true) {
            if (gate.aborted())
                throw ShardAbort{};
            RtUnit *next = nullptr;
            std::uint32_t next_sm = 0;
            Cycle best = ShardGate::kDone;
            for (std::uint32_t s : mine) {
                RtUnit *rt = units[s].get();
                if (rt->finished())
                    continue;
                if (!rt->hasEvents())
                    throwStuckUnit(s, last_stepped,
                                   rt->outstandingRays());
                // `mine` ascends, so `<` keeps the lowest SM on ties —
                // the same tie-break the sequential loop applies.
                Cycle c = rt->nextEventCycle();
                if (c < best) {
                    best = c;
                    next = rt;
                    next_sm = s;
                }
            }
            if (!next)
                return;
            last_stepped = best;
            // progress[next_sm] == best already (published after the
            // previous step), so waitTurn inside any shared access of
            // this step sees the correct key.
            next->step();
            if (next->finished())
                gate.setProgress(next_sm, ShardGate::kDone);
            else if (!next->hasEvents()) {
                gate.setProgress(next_sm, ShardGate::kDone);
                throwStuckUnit(next_sm, best,
                               next->outstandingRays());
            } else
                gate.setProgress(next_sm, next->nextEventCycle());
        }
    };

    // A failing worker records its error and aborts the gate, so every
    // other worker drains (waitTurn throws ShardAbort) instead of
    // waiting on SMs that will never advance.
    std::vector<std::exception_ptr> errors(num_workers);
    mem.setShardGate(&gate);
    {
        std::vector<std::jthread> workers;
        workers.reserve(num_workers);
        for (std::uint32_t w = 0; w < num_workers; ++w)
            workers.emplace_back([&, w] {
                try {
                    run_shard(w);
                } catch (const ShardAbort &) {
                } catch (...) {
                    errors[w] = std::current_exception();
                    gate.requestAbort();
                }
            });
    }
    mem.setShardGate(nullptr);

    for (std::uint32_t w = 0; w < num_workers; ++w)
        if (errors[w])
            std::rethrow_exception(errors[w]);
}

/**
 * Shared driver: distribute rays, run the global event loop, gather
 * results. @p units holds one RT unit per SM; @p predictors (one per
 * SM, null entries when prediction is off) are read for stats merging.
 */
SimResult
runEventLoop(std::vector<std::unique_ptr<RtUnit>> &units,
             const std::vector<RayPredictor *> &predictors,
             MemorySystem &mem, const std::vector<Ray> &rays,
             const SimConfig &config, const Bvh &bvh,
             const std::vector<Triangle> &triangles)
{
    std::uint32_t num_sms = static_cast<std::uint32_t>(units.size());
    RayDistribution dist =
        distributeRays(rays, config.rt.warpSize, num_sms);
    std::vector<std::vector<Ray>> &per_sm_rays = dist.rays;
    std::vector<std::vector<std::uint32_t>> &per_sm_ids = dist.ids;

    // Attach every run's bundle unconditionally and detach on every
    // exit: predictors in a PredictorSet outlive the run, and must
    // never keep reporting to a previous run's observers.
    attachObservers(units, mem,
                    {config.trace, config.profile, config.check});
    struct Detach
    {
        std::vector<std::unique_ptr<RtUnit>> &units;
        MemorySystem &mem;
        ~Detach() { attachObservers(units, mem, {}); }
    } detach{units, mem};

    InvariantChecker *check = config.check;
    if (check)
        check->setContext(describe(config) + ", " +
                          std::to_string(rays.size()) + " rays");
    TelemetrySampler *telemetry = config.telemetry;
    if (telemetry) {
        std::vector<const RtUnit *> probes;
        probes.reserve(num_sms);
        for (std::uint32_t s = 0; s < num_sms; ++s)
            probes.push_back(units[s].get());
        telemetry->attach(std::move(probes), &mem);
    }
    CycleProfiler *profile = config.profile;
    if (profile)
        profile->attach(num_sms);

    for (std::uint32_t s = 0; s < num_sms; ++s) {
        if (!per_sm_rays[s].empty())
            units[s]->submit(per_sm_rays[s], per_sm_ids[s]);
    }

    // A trace or a telemetry timeline records one global event order,
    // which only the sequential loop has. The profiler and the checker
    // run on either loop: their per-SM slices are touched only by the
    // owning worker, shared-level probes only inside the gated seam.
    std::uint32_t shard_workers =
        std::min<std::uint32_t>(config.simThreads, num_sms);
    if (shard_workers >= 2 && !config.trace && !telemetry)
        runShardedLoop(units, mem, shard_workers);
    else
        runSequentialLoop(units, telemetry);

    SimResult result;
    result.rayResults.resize(rays.size());
    double simt_acc = 0.0;
    for (std::uint32_t s = 0; s < num_sms; ++s) {
        const RtUnit &rt = *units[s];
        result.cycles = std::max(result.cycles, rt.completionCycle());
        result.stats.merge(rt.stats());
        result.stats.merge(rt.intersectionUnit().stats());
        if (predictors[s])
            result.stats.merge(predictors[s]->stats());
        simt_acc += rt.simtEfficiency();
        // Each RT unit fills exactly the global ids it was assigned.
        const auto &rr = rt.results();
        for (std::uint32_t id : per_sm_ids[s])
            result.rayResults[id] = rr[id];
    }
    result.simtEfficiency =
        units.empty() ? 1.0 : simt_acc / units.size();
    result.memStats = mem.aggregateStats();
    result.avgBusyBanks = mem.dram().avgBusyBanks();
    if (telemetry)
        telemetry->finish(result.cycles);
    if (profile) {
        profile->finish(result.cycles);
        // Driver-side conservation probe: every simulated cycle of
        // every SM was attributed to exactly one category.
        if (check)
            profile->checkConservation(*check);
    }
    if (check) {
        // End-of-run accounting sweep, then the per-ray oracle: every
        // completed ray must agree with the recursive reference
        // traversal (occlusion: hit flag; closest-hit: flag + bitwise
        // distance).
        for (std::uint32_t s = 0; s < num_sms; ++s)
            units[s]->checkFinalState(*check);
        mem.checkFinalState(*check);
        checkAgainstReference(*check, bvh, triangles, rays,
                              result.rayResults);
    }
    return result;
}

} // namespace

void
PredictorSet::bind(const PredictorConfig &config, std::uint32_t num_sms,
                   const Bvh &bvh, bool preserve_state)
{
    if (predictors_.size() != num_sms) {
        // First bind (or an SM-count change): build fresh predictors.
        predictors_.clear();
        for (std::uint32_t i = 0; i < num_sms; ++i)
            predictors_.push_back(std::make_unique<RayPredictor>(
                config, bvh, static_cast<std::uint16_t>(i)));
        return;
    }
    for (auto &p : predictors_) {
        p->rebind(bvh);
        if (!preserve_state)
            p->resetTable();
        p->clearStats();
    }
}

void
PredictorSet::resetTables()
{
    for (auto &p : predictors_)
        p->resetTable();
}

std::vector<RayPredictor *>
PredictorSet::pointers() const
{
    std::vector<RayPredictor *> out;
    out.reserve(predictors_.size());
    for (const auto &p : predictors_)
        out.push_back(p.get());
    return out;
}

Simulation::Simulation(const SimConfig &config, const Bvh &bvh,
                       const std::vector<Triangle> &triangles)
    : config_(config), bvh_(&bvh), triangles_(&triangles)
{
    config_.validate(bvh);
}

Simulation::Simulation(const SimConfig &config, const Bvh &bvh,
                       const std::vector<Triangle> &triangles,
                       PredictorSet &predictors)
    : config_(config), bvh_(&bvh), triangles_(&triangles),
      externalSet_(&predictors)
{
    config_.validate(bvh);
}

SimResult
Simulation::run(const std::vector<Ray> &rays)
{
    MemorySystem mem(config_.memory, config_.numSms);
    std::vector<std::unique_ptr<RayPredictor>> owned;
    std::vector<RayPredictor *> preds(config_.numSms, nullptr);

    if (externalSet_) {
        // Cross-frame state lives in the caller's set; pointers are
        // gathered per run so a bind() between runs takes effect.
        std::vector<RayPredictor *> ext = externalSet_->pointers();
        for (std::uint32_t i = 0;
             i < config_.numSms && i < ext.size(); ++i)
            preds[i] = ext[i];
    } else if (config_.predictor.enabled) {
        // Self-contained: cold predictors per run, so repeated runs are
        // independent and the call is thread-compatible with other
        // Simulations sharing the scene.
        for (std::uint32_t i = 0; i < config_.numSms; ++i) {
            owned.push_back(std::make_unique<RayPredictor>(
                config_.predictor, *bvh_, static_cast<std::uint16_t>(i)));
            preds[i] = owned.back().get();
        }
    }

    std::vector<std::unique_ptr<RtUnit>> units;
    for (std::uint32_t i = 0; i < config_.numSms; ++i)
        units.push_back(std::make_unique<RtUnit>(
            config_.rt, *bvh_, *triangles_, mem, i, preds[i]));
    return runEventLoop(units, preds, mem, rays, config_, *bvh_,
                        *triangles_);
}

} // namespace rtp
