/**
 * @file
 * Micro-benchmarks (google-benchmark): hash throughput, ray-box and
 * ray-triangle intersection tests, predictor table operations, BVH
 * build and reference traversal. These quantify the software cost of
 * the primitives the simulator executes millions of times.
 */

#include <benchmark/benchmark.h>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "core/hash.hpp"
#include "core/predictor_table.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

Ray
randomRay(Rng &rng, const Aabb &b)
{
    Ray r;
    r.origin = {rng.nextRange(b.lo.x, b.hi.x),
                rng.nextRange(b.lo.y, b.hi.y),
                rng.nextRange(b.lo.z, b.hi.z)};
    r.dir = normalize(Vec3{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                           rng.nextRange(-1, 1)} +
                      Vec3(1e-3f));
    r.tMax = b.diagonal() * 0.3f;
    return r;
}

void
BM_GridSphericalHash(benchmark::State &state)
{
    Aabb bounds{{0, 0, 0}, {100, 100, 100}};
    RayHasher h({HashFunction::GridSpherical, 5, 3, 0.15f}, bounds);
    Rng rng(1);
    Ray r = randomRay(rng, bounds);
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.hash(r));
        r.origin.x += 0.001f;
    }
}
BENCHMARK(BM_GridSphericalHash);

void
BM_TwoPointHash(benchmark::State &state)
{
    Aabb bounds{{0, 0, 0}, {100, 100, 100}};
    RayHasher h({HashFunction::TwoPoint, 5, 3, 0.15f}, bounds);
    Rng rng(2);
    Ray r = randomRay(rng, bounds);
    for (auto _ : state) {
        benchmark::DoNotOptimize(h.hash(r));
        r.origin.x += 0.001f;
    }
}
BENCHMARK(BM_TwoPointHash);

void
BM_RayBoxTest(benchmark::State &state)
{
    Aabb box{{-1, -1, -1}, {1, 1, 1}};
    Rng rng(3);
    Ray r = randomRay(rng, Aabb{{-5, -5, -5}, {5, 5, 5}});
    RayBoxPrecomp pre(r);
    float t;
    for (auto _ : state)
        benchmark::DoNotOptimize(intersectRayAabb(r, pre, box, t));
}
BENCHMARK(BM_RayBoxTest);

void
BM_RayTriangleTest(benchmark::State &state)
{
    Triangle tri{{0, 0, 5}, {2, 0, 5}, {0, 2, 5}};
    Ray r;
    r.origin = {0.5f, 0.5f, 0};
    r.dir = {0, 0, 1};
    HitRecord rec;
    for (auto _ : state)
        benchmark::DoNotOptimize(intersectRayTriangle(r, tri, rec));
}
BENCHMARK(BM_RayTriangleTest);

void
BM_PredictorTableLookup(benchmark::State &state)
{
    PredictorTableConfig cfg;
    PredictorTable table(cfg, 15);
    Rng rng(4);
    for (int i = 0; i < 2000; ++i) {
        std::uint32_t node = rng.nextBounded(1 << 27);
        std::uint32_t hash = rng.nextBounded(1 << 15);
        table.update(hash, node);
    }
    std::uint32_t h = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.lookup(h));
        h = (h + 577) & 0x7fff;
    }
}
BENCHMARK(BM_PredictorTableLookup);

void
BM_BvhBuild(benchmark::State &state)
{
    Scene s = makeScene(SceneId::Sibenik,
                        static_cast<float>(state.range(0)) / 100.0f);
    for (auto _ : state) {
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        benchmark::DoNotOptimize(bvh.nodeCount());
    }
    state.SetItemsProcessed(state.iterations() * s.mesh.size());
}
BENCHMARK(BM_BvhBuild)->Arg(2)->Arg(8)->Unit(benchmark::kMillisecond);

void
BM_ReferenceTraversal(benchmark::State &state)
{
    Scene s = makeScene(SceneId::Sibenik, 0.08f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    Rng rng(5);
    Aabb b = bvh.sceneBounds();
    std::vector<Ray> rays;
    for (int i = 0; i < 512; ++i)
        rays.push_back(randomRay(rng, b));
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            traverseAnyHit(bvh, s.mesh.triangles(), rays[i & 511]).hit);
        i++;
    }
}
BENCHMARK(BM_ReferenceTraversal);

} // namespace
} // namespace rtp

BENCHMARK_MAIN();
