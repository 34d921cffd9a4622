/**
 * @file
 * Paper-scale smoke run: one scene at full tessellation detail with a
 * 512x512x1spp viewport (a quarter of the paper's 1024x1024x4 setup)
 * through the 8-SM proposed configuration — the smallest run that
 * exercises the simulator at paper-like scale rather than test scale.
 *
 * Used by the CI perf gate: the run must finish inside a wall-clock
 * budget (--budget-seconds or RTP_SMOKE_BUDGET, whole seconds; 0
 * disables), so a host-performance regression that only shows up at
 * scale — e.g. a kernel or event-loop slowdown hidden by tiny test
 * workloads — fails loudly. Both budget sources parse strictly
 * (exp/env_config.hpp rules): "abc" or "60s" exits 2 before any scene
 * is built rather than silently disabling the gate.
 *
 * Prints the scene, ray count, simulated cycles, wall seconds, and
 * rays per wall-second. Exit status: 0 inside budget, 1 over budget,
 * 2 on a usage error.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bvh/builder.hpp"
#include "exp/env_config.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"

using namespace rtp;

namespace {

double
now_seconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t budget_seconds = 0;
    try {
        budget_seconds = parseEnvIndex("RTP_SMOKE_BUDGET", 0);
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--budget-seconds") == 0 &&
                i + 1 < argc) {
                budget_seconds =
                    parseDecimal("--budget-seconds", argv[++i]);
            } else {
                std::fprintf(stderr,
                             "usage: paperscale_smoke "
                             "[--budget-seconds S]\n");
                return 2;
            }
        }
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "paperscale_smoke: %s\n", e.what());
        return 2;
    }

    std::printf("paperscale_smoke: Sibenik detail=1.0 512x512x1spp, "
                "8 SMs proposed\n");

    double t0 = now_seconds();
    Scene scene = makeScene(SceneId::Sibenik, 1.0f);
    Bvh bvh = BvhBuilder().build(scene.mesh.triangles());
    RayGenConfig rg;
    rg.width = 512;
    rg.height = 512;
    rg.samplesPerPixel = 1;
    RayBatch batch = generateAoRays(scene, bvh, rg);
    double build_seconds = now_seconds() - t0;
    std::printf("  built %zu tris, %zu rays in %.2fs\n",
                scene.mesh.triangles().size(), batch.rays.size(),
                build_seconds);

    SimConfig config = SimConfig::proposed();
    config.numSms = 8;

    t0 = now_seconds();
    SimResult result =
        Simulation(config, bvh, scene.mesh.triangles())
            .run(batch.rays);
    double sim_seconds = now_seconds() - t0;

    double rps =
        sim_seconds > 0.0 ? batch.rays.size() / sim_seconds : 0.0;
    std::printf("  %zu rays, %llu cycles, wall %.2fs, %.0f rays/s\n",
                batch.rays.size(),
                static_cast<unsigned long long>(result.cycles),
                sim_seconds, rps);

    const double budget = static_cast<double>(budget_seconds);
    if (budget > 0.0 && sim_seconds > budget) {
        std::fprintf(stderr,
                     "paperscale_smoke: FAIL — simulation wall clock "
                     "%.2fs exceeded the %.0fs budget\n",
                     sim_seconds, budget);
        return 1;
    }
    if (budget > 0.0)
        std::printf("  inside wall-clock budget (%.2fs <= %.0fs)\n",
                    sim_seconds, budget);
    return 0;
}
