/** @file Invariant checker and reference-oracle tests. */

#include <gtest/gtest.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "core/reference.hpp"
#include "gpu/differential.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/check.hpp"

namespace rtp {
namespace {

struct Rig
{
    Scene scene;
    Bvh bvh;
    RayBatch ao;
    RayBatch gi;

    Rig() : scene(makeScene(SceneId::FireplaceRoom, 0.05f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        RayGenConfig cfg;
        cfg.width = 32;
        cfg.height = 32;
        cfg.samplesPerPixel = 2;
        cfg.viewportFraction = 0.3f;
        ao = generateAoRays(scene, bvh, cfg);
        gi = generateGiRays(scene, bvh, cfg);
    }
};

Rig &
rig()
{
    static Rig r;
    return r;
}

TEST(InvariantChecker, PassingProbesCountAndDoNotThrow)
{
    InvariantChecker check;
    EXPECT_EQ(check.checksRun(), 0u);
    check.require(true, "Test", "always holds");
    check.require(true, "Test", "still holds",
                  [] { return std::string("never built"); });
    EXPECT_EQ(check.checksRun(), 2u);
}

TEST(InvariantChecker, ViolationCarriesComponentInvariantAndContext)
{
    InvariantChecker check;
    check.setContext("2 SMs, 42 rays");
    try {
        check.require(false, "CacheModel/l1", "accounting balances",
                      [] { return std::string("3 + 4 != 8"); });
        FAIL() << "require(false) must throw";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.component(), "CacheModel/l1");
        EXPECT_EQ(e.invariant(), "accounting balances");
        EXPECT_EQ(e.detail(), "3 + 4 != 8");
        EXPECT_EQ(e.context(), "2 SMs, 42 rays");
        // what() aggregates everything a bug report needs.
        std::string msg = e.what();
        EXPECT_NE(msg.find("CacheModel/l1"), std::string::npos);
        EXPECT_NE(msg.find("accounting balances"), std::string::npos);
        EXPECT_NE(msg.find("3 + 4 != 8"), std::string::npos);
        EXPECT_NE(msg.find("2 SMs, 42 rays"), std::string::npos);
    }
}

TEST(InvariantChecker, DetailIsLazilyBuilt)
{
    InvariantChecker check;
    bool built = false;
    check.require(true, "Test", "holds", [&] {
        built = true;
        return std::string();
    });
    EXPECT_FALSE(built);
}

TEST(ReferenceOracle, MatchesIterativeTraversals)
{
    for (const Ray &ray : rig().ao.rays) {
        HitRecord ref = referenceTrace(rig().bvh,
                                       rig().scene.mesh.triangles(),
                                       ray);
        HitRecord it = traverseAnyHit(rig().bvh,
                                      rig().scene.mesh.triangles(),
                                      ray);
        ASSERT_EQ(ref.hit, it.hit);
    }
    for (const Ray &ray : rig().gi.rays) {
        HitRecord ref = referenceTrace(rig().bvh,
                                       rig().scene.mesh.triangles(),
                                       ray);
        HitRecord it = traverseClosestHit(rig().bvh,
                                          rig().scene.mesh.triangles(),
                                          ray);
        ASSERT_EQ(ref.hit, it.hit);
        if (ref.hit)
            ASSERT_EQ(ref.t, it.t); // bitwise-equal by construction
    }
}

TEST(CheckedSimulation, ProbesExecuteAcrossComponents)
{
    for (const SimConfig &base :
         {SimConfig::baseline(), SimConfig::proposed()}) {
        InvariantChecker check;
        SimConfig cfg = base;
        cfg.check = &check;
        SimResult r = simulate(rig().bvh, rig().scene.mesh.triangles(),
                               rig().ao.rays, cfg);
        EXPECT_EQ(r.stats.get("rays_completed"), rig().ao.rays.size());
        // Per-event probes plus the end-of-run sweep plus the per-ray
        // oracle: a checked run of this size executes many thousands of
        // probes. The exact count is config-dependent; assert coverage.
        EXPECT_GT(check.checksRun(), rig().ao.rays.size());
    }
}

TEST(CheckedSimulation, CheckerDoesNotPerturbSimulation)
{
    // Same acceptance contract as trace and telemetry: an attached
    // checker must not change simulated cycles, statistics, or per-ray
    // results. Byte-compare the result JSON so even counter bookkeeping
    // perturbation is caught.
    for (const SimConfig &base :
         {SimConfig::baseline(), SimConfig::proposed()}) {
        SimResult plain = simulate(
            rig().bvh, rig().scene.mesh.triangles(), rig().ao.rays,
            base);
        InvariantChecker check;
        SimConfig checked_cfg = base;
        checked_cfg.check = &check;
        SimResult checked = simulate(
            rig().bvh, rig().scene.mesh.triangles(), rig().ao.rays,
            checked_cfg);
        EXPECT_GT(check.checksRun(), 0u);
        EXPECT_EQ(plain.cycles, checked.cycles);
        EXPECT_EQ(plain.toJson(), checked.toJson());
        for (std::size_t i = 0; i < rig().ao.rays.size(); ++i) {
            ASSERT_EQ(plain.rayResults[i].hit,
                      checked.rayResults[i].hit)
                << "ray " << i;
        }
    }
}

TEST(ReferenceOracle, CatchesCorruptedResults)
{
    // The oracle must actually be able to fail: corrupt one simulated
    // result and assert the cross-check reports that exact ray.
    SimResult r = simulate(rig().bvh, rig().scene.mesh.triangles(),
                           rig().ao.rays, SimConfig::proposed());
    std::vector<RayResult> corrupted = r.rayResults;
    corrupted[7].hit = !corrupted[7].hit;
    InvariantChecker check;
    try {
        checkAgainstReference(check, rig().bvh,
                              rig().scene.mesh.triangles(),
                              rig().ao.rays, corrupted);
        FAIL() << "corrupted visibility must be detected";
    } catch (const InvariantViolation &e) {
        EXPECT_EQ(e.component(), "ReferenceOracle");
        EXPECT_NE(e.detail().find("ray 7"), std::string::npos);
    }
}

TEST(CheckedSimulation, ConfigToJsonIsDeterministicAndComplete)
{
    SimConfig cfg = SimConfig::proposed();
    std::string a = configToJson(cfg);
    EXPECT_EQ(a, configToJson(cfg));
    // Spot-check that every top-level section is present; simfuzz
    // reproducers are rebuilt from this string.
    for (const char *key : {"\"num_sms\"", "\"rt\"", "\"predictor\"",
                            "\"memory\"", "\"repacker\"", "\"table\"",
                            "\"dram\""})
        EXPECT_NE(a.find(key), std::string::npos) << key;
}

} // namespace
} // namespace rtp
