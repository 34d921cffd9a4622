/**
 * @file
 * Tests for the Simulation facade, PredictorSet, and
 * SimConfig::validate().
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "bvh/builder.hpp"
#include "gpu/frame_simulator.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace rtp {
namespace {

struct Rig
{
    Scene scene;
    Bvh bvh;
    RayBatch ao;

    Rig()
        : scene(makeScene(SceneId::FireplaceRoom, 0.05f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
        RayGenConfig cfg;
        cfg.width = 32;
        cfg.height = 32;
        cfg.samplesPerPixel = 2;
        cfg.viewportFraction = 0.3f;
        ao = generateAoRays(scene, bvh, cfg);
    }
};

Rig &
rig()
{
    static Rig r;
    return r;
}

// --- Facade behaviour ----------------------------------------------------

TEST(Simulation, RepeatedRunsAreIndependent)
{
    // Self-contained mode: every run starts from cold state, including
    // owned predictors, so run N is byte-identical to run 1.
    Simulation sim(SimConfig::proposed(), rig().bvh,
                   rig().scene.mesh.triangles());
    SimResult a = sim.run(rig().ao.rays);
    SimResult b = sim.run(rig().ao.rays);
    EXPECT_EQ(a.toJson(), b.toJson());
}

TEST(Simulation, PredictorSetMatchesFrameSimulator)
{
    SimConfig cfg = SimConfig::proposed();

    FrameSimulator frames(cfg, /*preserve_state=*/true);
    SimResult f1 = frames.runFrame(rig().bvh,
                                   rig().scene.mesh.triangles(),
                                   rig().ao.rays);
    SimResult f2 = frames.runFrame(rig().bvh,
                                   rig().scene.mesh.triangles(),
                                   rig().ao.rays);

    // The same two frames, driven through the facade by hand.
    PredictorSet set;
    Simulation sim(cfg, rig().bvh, rig().scene.mesh.triangles(), set);
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult m1 = sim.run(rig().ao.rays);
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult m2 = sim.run(rig().ao.rays);

    EXPECT_EQ(f1.toJson(), m1.toJson());
    EXPECT_EQ(f2.toJson(), m2.toJson());
}

TEST(Simulation, PredictorSetCarriesTrainedState)
{
    SimConfig cfg = SimConfig::proposed();
    PredictorSet set;
    Simulation sim(cfg, rig().bvh, rig().scene.mesh.triangles(), set);

    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult cold = sim.run(rig().ao.rays);
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, true);
    SimResult warm = sim.run(rig().ao.rays);

    // A table trained by the first run predicts rays from cycle 0 of
    // the second, instead of warming up from empty.
    EXPECT_GT(warm.stats.get("rays_predicted"),
              cold.stats.get("rays_predicted"));

    // Rebinding with preserve_state=false drops the training (and, as
    // with any bind, the per-run stats): the next run is cold again.
    set.bind(cfg.predictor, cfg.numSms, rig().bvh, false);
    SimResult recold = sim.run(rig().ao.rays);
    EXPECT_EQ(cold.toJson(), recold.toJson());
}

TEST(Simulation, PredictorSetRunDropsPreviousRunObservers)
{
    // Regression: a PredictorSet's predictors outlive each run, and
    // Simulation::run used to attach the trace sink and checker only
    // when they were non-null. A run without observers after one with them then
    // kept emitting into the first run's sink and checker (a
    // use-after-free once those are destroyed).
    SimConfig cfg = SimConfig::proposed();
    PredictorSet set;
    set.bind(cfg.predictor, cfg.numSms, rig().bvh);

    TraceSink sink;
    InvariantChecker check;
    SimConfig observed = cfg;
    observed.trace = &sink;
    observed.check = &check;
    Simulation(observed, rig().bvh, rig().scene.mesh.triangles(), set)
        .run(rig().ao.rays);
    std::size_t events = sink.size();
    std::uint64_t checks = check.checksRun();
    ASSERT_GT(events, 0u);
    ASSERT_GT(checks, 0u);

    Simulation(cfg, rig().bvh, rig().scene.mesh.triangles(), set)
        .run(rig().ao.rays);
    EXPECT_EQ(sink.size(), events);
    EXPECT_EQ(check.checksRun(), checks);
}

// --- SimConfig::validate() ----------------------------------------------

TEST(SimConfigValidate, AcceptsStockConfigs)
{
    EXPECT_NO_THROW(SimConfig::baseline().validate());
    EXPECT_NO_THROW(SimConfig::proposed().validate());
    EXPECT_NO_THROW(SimConfig::proposed().validate(rig().bvh));
}

TEST(SimConfigValidate, RejectsZeroSms)
{
    SimConfig c = SimConfig::baseline();
    c.numSms = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroWarpSize)
{
    SimConfig c = SimConfig::baseline();
    c.rt.warpSize = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroMaxWarps)
{
    SimConfig c = SimConfig::baseline();
    c.rt.maxWarps = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroStackEntries)
{
    SimConfig c = SimConfig::baseline();
    c.rt.stackEntries = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroL1Ports)
{
    SimConfig c = SimConfig::baseline();
    c.rt.l1PortsPerCycle = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroL1LineBytes)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l1.lineBytes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsL1SmallerThanOneLine)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l1.sizeBytes = c.memory.l1.lineBytes - 1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroL2LineBytes)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l2.lineBytes = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsL2SmallerThanOneLine)
{
    SimConfig c = SimConfig::baseline();
    c.memory.l2.sizeBytes = c.memory.l2.lineBytes - 1;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroDramBanks)
{
    SimConfig c = SimConfig::baseline();
    c.memory.dram.numBanks = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsEmptyPredictorTable)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.table.numEntries = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, RejectsZeroPredictorPorts)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.accessPorts = 0;
    EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(SimConfigValidate, PredictorKnobsIgnoredWhenDisabled)
{
    SimConfig c = SimConfig::baseline();
    c.predictor.table.numEntries = 0;
    c.predictor.accessPorts = 0;
    EXPECT_NO_THROW(c.validate());
}

TEST(SimConfigValidate, RejectsGoUpLevelBeyondBvhDepth)
{
    SimConfig c = SimConfig::proposed();
    c.predictor.goUpLevel = rig().bvh.maxDepth() + 1;
    EXPECT_NO_THROW(c.validate()); // config-only overload can't know
    EXPECT_THROW(c.validate(rig().bvh), std::invalid_argument);
}

TEST(SimConfigValidate, SimulationConstructorValidates)
{
    SimConfig c = SimConfig::baseline();
    c.numSms = 0;
    EXPECT_THROW(
        Simulation(c, rig().bvh, rig().scene.mesh.triangles()),
        std::invalid_argument);

    SimConfig d = SimConfig::proposed();
    d.predictor.goUpLevel = rig().bvh.maxDepth() + 1;
    EXPECT_THROW(
        Simulation(d, rig().bvh, rig().scene.mesh.triangles()),
        std::invalid_argument);
}

} // namespace
} // namespace rtp
