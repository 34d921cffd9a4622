/**
 * @file
 * The zero-perturbation contract of every observer, tested once.
 *
 * The four observers (trace sink, telemetry sampler, cycle profiler
 * and invariant checker) are attached one at a time and all together,
 * to the baseline and proposed configurations of a 4-SM chip at
 * simThreads = 1 and 4. The profile_t4 and check_t4 cells run the
 * sharded event loop; a trace sink or a telemetry sampler routes a run
 * to the sequential loop, so the trace, telemetry and all cells run it
 * at both thread counts. Every cell asserts that:
 *  - the SimResult JSON and every per-ray result equal the unobserved
 *    run's;
 *  - every attached observer produced output;
 *  - in the all-four cell, each observer's output equals its output
 *    when it runs alone, so observers do not perturb one another. The
 *    one designed interaction: with a profiler attached, the checker
 *    also probes the profile's conservation law, once per SM.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>

#include "exp/workload.hpp"
#include "gpu/simulator.hpp"
#include "scene/registry.hpp"
#include "util/check.hpp"
#include "util/profile.hpp"
#include "util/telemetry.hpp"
#include "util/trace.hpp"

namespace rtp {
namespace {

/** Which observers a run attaches, as a bit set. */
enum Observer : unsigned
{
    kTrace = 1,
    kTelemetry = 2,
    kProfile = 4,
    kCheck = 8,
    kAll = kTrace | kTelemetry | kProfile | kCheck,
};

WorkloadCache &
cache()
{
    static WorkloadCache *c = [] {
        WorkloadConfig wc;
        wc.detail = 0.05f;
        wc.raygen.width = 24;
        wc.raygen.height = 24;
        wc.raygen.samplesPerPixel = 1;
        wc.raygen.viewportFraction = 0.3f;
        return new WorkloadCache(wc);
    }();
    return *c;
}

/** One run's result plus what each attached observer recorded. */
struct Observed
{
    SimResult result;
    std::size_t traceEvents = 0;
    std::string trace;
    std::size_t telemetryRecords = 0;
    std::string telemetry;
    std::uint64_t profileElapsed = 0;
    std::string profile;
    std::uint64_t checksRun = 0;
};

constexpr std::uint32_t kSms = 4;

/** Run Sibenik on kSms SMs with the @p observers bit set attached. */
Observed
runObserved(SimConfig config, std::uint32_t sim_threads,
            unsigned observers)
{
    const Workload &w = cache().get(SceneId::Sibenik);
    config.numSms = kSms;
    config.simThreads = sim_threads;
    TraceSink sink(1u << 16);
    TelemetrySampler sampler(128);
    CycleProfiler profile;
    InvariantChecker check;
    if (observers & kTrace)
        config.trace = &sink;
    if (observers & kTelemetry)
        config.telemetry = &sampler;
    if (observers & kProfile)
        config.profile = &profile;
    if (observers & kCheck)
        config.check = &check;

    Observed out;
    out.result = Simulation(config, w.bvh, w.scene.mesh.triangles())
                     .run(w.ao.rays);
    std::ostringstream trace_os;
    sink.writeChromeTrace(trace_os);
    out.traceEvents = sink.size();
    out.trace = trace_os.str();
    std::ostringstream telemetry_os;
    sampler.writeJson(telemetry_os);
    out.telemetryRecords = sampler.records().size();
    out.telemetry = telemetry_os.str();
    out.profileElapsed = profile.elapsed();
    out.profile = profile.toJson();
    out.checksRun = check.checksRun();
    return out;
}

/** Field-by-field equality; t compares bit patterns. */
bool
sameRayResult(const RayResult &a, const RayResult &b)
{
    return a.hit == b.hit &&
           std::bit_cast<std::uint32_t>(a.t) ==
               std::bit_cast<std::uint32_t>(b.t) &&
           a.prim == b.prim && a.predicted == b.predicted &&
           a.verified == b.verified && a.mispredicted == b.mispredicted;
}

/** (observer bit set, proposed config?, simThreads). */
using Cell = std::tuple<unsigned, bool, std::uint32_t>;

class ObserverMatrix : public ::testing::TestWithParam<Cell>
{
};

TEST_P(ObserverMatrix, DoesNotPerturbSimulation)
{
    const auto [observers, proposed, threads] = GetParam();
    const SimConfig config =
        proposed ? SimConfig::proposed() : SimConfig::baseline();
    const Observed plain = runObserved(config, threads, 0);
    const Observed seen = runObserved(config, threads, observers);

    EXPECT_EQ(plain.result.cycles, seen.result.cycles);
    EXPECT_EQ(plain.result.toJson(), seen.result.toJson());
    ASSERT_EQ(plain.result.rayResults.size(),
              seen.result.rayResults.size());
    for (std::size_t i = 0; i < plain.result.rayResults.size(); ++i)
        ASSERT_TRUE(sameRayResult(plain.result.rayResults[i],
                                  seen.result.rayResults[i]))
            << "ray " << i;

    if (observers & kTrace) {
        EXPECT_GT(seen.traceEvents, 0u);
    }
    if (observers & kTelemetry) {
        EXPECT_GT(seen.telemetryRecords, 2u);
    }
    if (observers & kProfile) {
        EXPECT_GT(seen.profileElapsed, 0u);
    }
    if (observers & kCheck) {
        EXPECT_GT(seen.checksRun, 0u);
    }

    if (observers != kAll)
        return;
    EXPECT_EQ(seen.trace, runObserved(config, threads, kTrace).trace);
    EXPECT_EQ(seen.telemetry,
              runObserved(config, threads, kTelemetry).telemetry);
    EXPECT_EQ(seen.profile,
              runObserved(config, threads, kProfile).profile);
    // With a profiler attached the checker also probes the profile's
    // conservation law, once per SM; nothing else moves its count.
    EXPECT_EQ(seen.checksRun,
              runObserved(config, threads, kCheck).checksRun + kSms);
}

std::string
cellName(const ::testing::TestParamInfo<Cell> &info)
{
    const auto [observers, proposed, threads] = info.param;
    const char *name = observers == kTrace       ? "trace"
                       : observers == kTelemetry ? "telemetry"
                       : observers == kProfile   ? "profile"
                       : observers == kCheck     ? "check"
                                                 : "all";
    return std::string(name) + (proposed ? "_proposed" : "_baseline") +
           "_t" + std::to_string(threads);
}

INSTANTIATE_TEST_SUITE_P(
    Observers, ObserverMatrix,
    ::testing::Combine(::testing::Values(kTrace, kTelemetry, kProfile,
                                         kCheck, kAll),
                       ::testing::Bool(), ::testing::Values(1u, 4u)),
    cellName);

} // namespace
} // namespace rtp
