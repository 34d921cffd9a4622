/** @file Workload ray generator tests (Section 5.2 properties). */

#include <gtest/gtest.h>

#include <ios>

#include "bvh/builder.hpp"
#include "bvh/traversal.hpp"
#include "rays/raygen.hpp"

namespace rtp {
namespace {

struct Fixture
{
    Scene scene;
    Bvh bvh;

    Fixture() : scene(makeScene(SceneId::FireplaceRoom, 0.05f))
    {
        bvh = BvhBuilder().build(scene.mesh.triangles());
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

TEST(RayGen, PrimaryOnePerPixel)
{
    RayGenConfig cfg;
    cfg.width = 17;
    cfg.height = 11;
    RayBatch batch = generatePrimaryRays(fixture().scene, cfg);
    EXPECT_EQ(batch.rays.size(), 17u * 11u);
    EXPECT_EQ(batch.primaryRays, 17u * 11u);
    for (const Ray &r : batch.rays)
        EXPECT_EQ(r.kind, RayKind::Primary);
}

TEST(RayGen, AoSamplesPerPixelRespected)
{
    RayGenConfig cfg;
    cfg.width = 24;
    cfg.height = 24;
    cfg.samplesPerPixel = 3;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(batch.rays.size(), batch.primaryHits * 3);
    EXPECT_GT(batch.primaryHits, 0u);
    EXPECT_LE(batch.primaryHits, batch.primaryRays);
}

TEST(RayGen, AoLengthWithinPaperRange)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    float diag = fixture().bvh.sceneBounds().diagonal();
    for (const Ray &r : batch.rays) {
        EXPECT_GE(r.tMax, 0.25f * diag * 0.999f);
        EXPECT_LE(r.tMax, 0.40f * diag * 1.001f);
        EXPECT_EQ(r.kind, RayKind::Occlusion);
        EXPECT_NEAR(length(r.dir), 1.0f, 1e-4f);
    }
}

TEST(RayGen, AoOriginsLieOnSurfaces)
{
    RayGenConfig cfg;
    cfg.width = 12;
    cfg.height = 12;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    Aabb b = fixture().bvh.sceneBounds();
    Aabb grown = b;
    grown.lo -= Vec3(0.1f);
    grown.hi += Vec3(0.1f);
    for (const Ray &r : batch.rays)
        EXPECT_TRUE(grown.contains(r.origin));
}

TEST(RayGen, AoDirectionsInUpperHemisphere)
{
    // Each AO ray must leave the surface it was spawned from: tracing a
    // tiny step backwards must not be inside geometry. We check the
    // weaker, deterministic property that consecutive spp rays share an
    // origin (same primary hit).
    RayGenConfig cfg;
    cfg.width = 8;
    cfg.height = 8;
    cfg.samplesPerPixel = 4;
    RayBatch batch = generateAoRays(fixture().scene, fixture().bvh, cfg);
    for (std::size_t i = 0; i + 3 < batch.rays.size(); i += 4) {
        EXPECT_EQ(batch.rays[i].origin, batch.rays[i + 1].origin);
        EXPECT_EQ(batch.rays[i].origin, batch.rays[i + 3].origin);
    }
}

TEST(RayGen, GiBounceCountBounded)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    cfg.giBounces = 3;
    RayBatch batch = generateGiRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_GT(batch.rays.size(), 0u);
    EXPECT_LE(batch.rays.size(), batch.primaryHits * 3);
    for (const Ray &r : batch.rays)
        EXPECT_EQ(r.kind, RayKind::Secondary);
}

TEST(RayGen, ReflectionRaysMirrorDirection)
{
    RayGenConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    RayBatch batch =
        generateReflectionRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(batch.rays.size(), batch.primaryHits);
    for (const Ray &r : batch.rays)
        EXPECT_NEAR(length(r.dir), 1.0f, 1e-3f);
}

TEST(RayGen, DeterministicForSeed)
{
    RayGenConfig cfg;
    cfg.width = 10;
    cfg.height = 10;
    cfg.seed = 77;
    RayBatch a = generateAoRays(fixture().scene, fixture().bvh, cfg);
    RayBatch b = generateAoRays(fixture().scene, fixture().bvh, cfg);
    ASSERT_EQ(a.rays.size(), b.rays.size());
    for (std::size_t i = 0; i < a.rays.size(); ++i) {
        EXPECT_EQ(a.rays[i].origin, b.rays[i].origin);
        EXPECT_EQ(a.rays[i].dir, b.rays[i].dir);
    }
    cfg.seed = 78;
    RayBatch c = generateAoRays(fixture().scene, fixture().bvh, cfg);
    bool any_diff = false;
    for (std::size_t i = 0; i < std::min(a.rays.size(), c.rays.size());
         ++i) {
        if (!(a.rays[i].dir == c.rays[i].dir))
            any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

/** Every generated field of two rays matches bitwise. */
void
expectSameRay(const Ray &a, const Ray &b, std::size_t i)
{
    EXPECT_EQ(a.origin, b.origin) << "ray " << i;
    EXPECT_EQ(a.dir, b.dir) << "ray " << i;
    EXPECT_EQ(a.tMin, b.tMin) << "ray " << i;
    EXPECT_EQ(a.tMax, b.tMax) << "ray " << i;
    EXPECT_EQ(a.kind, b.kind) << "ray " << i;
}

/** Identical batches for one seed, field-by-field bitwise. */
template <typename Gen>
void
expectByteIdentical(Gen gen)
{
    RayBatch a = gen();
    RayBatch b = gen();
    ASSERT_EQ(a.rays.size(), b.rays.size());
    ASSERT_FALSE(a.rays.empty());
    EXPECT_EQ(a.primaryRays, b.primaryRays);
    EXPECT_EQ(a.primaryHits, b.primaryHits);
    for (std::size_t i = 0; i < a.rays.size(); ++i)
        expectSameRay(a.rays[i], b.rays[i], i);
}

TEST(RayGen, GiDeterministicForSeed)
{
    RayGenConfig cfg;
    cfg.width = 10;
    cfg.height = 10;
    cfg.seed = 77;
    expectByteIdentical([&] {
        return generateGiRays(fixture().scene, fixture().bvh, cfg);
    });
}

TEST(RayGen, PhotonDeterministicForSeed)
{
    RayGenConfig cfg;
    cfg.photonCount = 200;
    cfg.seed = 77;
    expectByteIdentical([&] {
        return generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    });
    // A different seed emits different photons.
    RayBatch a = generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    cfg.seed = 78;
    RayBatch c = generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    ASSERT_FALSE(a.rays.empty());
    EXPECT_FALSE(a.rays[0].dir == c.rays[0].dir);
}

TEST(RayGen, PhotonCountAndShape)
{
    RayGenConfig cfg;
    cfg.photonCount = 150;
    cfg.photonBounces = 2;
    RayBatch batch =
        generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(batch.primaryRays, 150u);
    EXPECT_GE(batch.rays.size(), 150u);
    // Each photon contributes 1 + at most photonBounces segments.
    EXPECT_LE(batch.rays.size(),
              150u * (1u + static_cast<unsigned>(cfg.photonBounces)));
    Vec3 light{fixture().bvh.sceneBounds().center().x,
               fixture().bvh.sceneBounds().hi.y -
                   0.05f * fixture().bvh.sceneBounds().extent().y,
               fixture().bvh.sceneBounds().center().z};
    for (std::size_t i = 0; i < batch.rays.size(); ++i) {
        EXPECT_EQ(batch.rays[i].kind, RayKind::Secondary);
        EXPECT_NEAR(length(batch.rays[i].dir), 1.0f, 1e-3f);
    }
    // Emission segments start at the default light.
    EXPECT_EQ(batch.rays[0].origin, light);
    // photonCount = 0 falls back to one per pixel.
    cfg.photonCount = 0;
    cfg.width = 6;
    cfg.height = 5;
    RayBatch per_pixel =
        generatePhotonRays(fixture().scene, fixture().bvh, cfg);
    EXPECT_EQ(per_pixel.primaryRays, 30u);
}

TEST(RayGen, PathBounceRaysFollowHits)
{
    RayGenConfig cfg;
    cfg.width = 8;
    cfg.height = 8;
    RayBatch primary = generatePrimaryRays(fixture().scene, cfg);
    // Reference-trace the primaries to fabricate simulator results.
    BvhTraversal trav(fixture().bvh, fixture().scene.mesh.triangles());
    std::vector<PathHit> hits;
    std::size_t expect_hits = 0;
    for (const Ray &r : primary.rays) {
        HitRecord rec = trav.closestHit(r);
        hits.push_back(PathHit{rec.hit, rec.t, rec.prim});
        if (rec.hit)
            expect_hits++;
    }
    Rng rng(11, 37);
    RayBatch wave = generatePathBounceRays(
        fixture().scene, fixture().bvh, primary.rays, hits, rng);
    EXPECT_EQ(wave.rays.size(), expect_hits);
    EXPECT_EQ(wave.primaryRays, primary.rays.size());
    for (const Ray &r : wave.rays)
        EXPECT_EQ(r.kind, RayKind::Secondary);

    // Same inputs + same rng stream state => byte-identical wave.
    Rng rng2(11, 37);
    RayBatch wave2 = generatePathBounceRays(
        fixture().scene, fixture().bvh, primary.rays, hits, rng2);
    ASSERT_EQ(wave.rays.size(), wave2.rays.size());
    for (std::size_t i = 0; i < wave.rays.size(); ++i)
        expectSameRay(wave.rays[i], wave2.rays[i], i);

    // Degenerate input: a hit with an out-of-range prim is skipped
    // instead of indexing out of bounds.
    std::vector<PathHit> bogus(primary.rays.size());
    for (auto &h : bogus)
        h = PathHit{true, 1.0f, 0xFFFFFFFFu};
    Rng rng3(11, 37);
    RayBatch none = generatePathBounceRays(
        fixture().scene, fixture().bvh, primary.rays, bogus, rng3);
    EXPECT_TRUE(none.rays.empty());
}

TEST(RayGen, ViewportCropNarrowsSpread)
{
    RayGenConfig wide;
    wide.width = 16;
    wide.height = 16;
    wide.viewportFraction = 1.0f;
    RayGenConfig crop = wide;
    crop.viewportFraction = 0.1f;
    RayBatch a = generatePrimaryRays(fixture().scene, wide);
    RayBatch b = generatePrimaryRays(fixture().scene, crop);
    auto spread = [](const RayBatch &batch) {
        Vec3 lo(1e9f), hi(-1e9f);
        for (const Ray &r : batch.rays) {
            lo = min(lo, r.dir);
            hi = max(hi, r.dir);
        }
        return length(hi - lo);
    };
    EXPECT_LT(spread(b), spread(a) * 0.5f);
}

/**
 * 64-bit FNV-1a over every generated field of a batch. Fields are
 * hashed one by one: Ray has padding after its kind byte.
 */
std::uint64_t
batchDigest(const RayBatch &batch)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto add = [&h](const auto &value) {
        const auto *p = reinterpret_cast<const unsigned char *>(&value);
        for (std::size_t i = 0; i < sizeof value; ++i)
            h = (h ^ p[i]) * 0x100000001b3ULL;
    };
    add(batch.primaryRays);
    add(batch.primaryHits);
    add(batch.rays.size());
    for (const Ray &r : batch.rays) {
        for (float f : {r.origin.x, r.origin.y, r.origin.z, r.dir.x,
                        r.dir.y, r.dir.z, r.tMin, r.tMax})
            add(f);
        add(r.kind);
    }
    return h;
}

/** perfbench's ray-generation settings: 96x96 crop of a 1024 frame. */
RayGenConfig
perfbenchConfig(std::uint64_t seed)
{
    RayGenConfig cfg;
    cfg.width = 96;
    cfg.height = 96;
    cfg.samplesPerPixel = 4;
    cfg.viewportFraction = 96.0f / 1024.0f;
    cfg.photonCount = 0;
    cfg.photonBounces = 2;
    cfg.seed = seed;
    return cfg;
}

// Digests recorded from the serial generators. Seed 15's LR photon
// batch has a photon that stops before full depth; the open quad
// stops most of its photons early; photonCount 3 leaves a parallel
// chunk empty.
TEST(RayGen, GoldenDigest)
{
    struct Golden
    {
        SceneId id;
        std::uint64_t seed;
        std::uint64_t ao;
        std::uint64_t photon;
    };
    const Golden golden[] = {
        {SceneId::Sibenik, 1, 0x26acb1f8e7d80395ULL,
         0xd7c372a685a1c9faULL},
        {SceneId::Sibenik, 15, 0x891df24e649e633ULL,
         0xf0a4a264319c3c33ULL},
        {SceneId::CrytekSponza, 1, 0xbe4848ed050aa7b3ULL,
         0xdf7cf01e39d24a39ULL},
        {SceneId::CrytekSponza, 15, 0xefc9773e92580afcULL,
         0x42f92e7eb04d5720ULL},
        {SceneId::LostEmpire, 1, 0x24100f2dc8ae64afULL,
         0xe3ce27c63c0150deULL},
        {SceneId::LostEmpire, 15, 0x5a8854fbd7d7d7ddULL,
         0x280aaf5632b334acULL},
        {SceneId::LivingRoom, 1, 0xb166c511e9a2034ULL,
         0x2caf94839535ffeaULL},
        {SceneId::LivingRoom, 15, 0xc9c9d7656724c3abULL,
         0x7312231e05194613ULL},
        {SceneId::FireplaceRoom, 1, 0x65be65cc8c316e90ULL,
         0xfff58a353bd6e9eaULL},
        {SceneId::FireplaceRoom, 15, 0x756e32a78097077cULL,
         0x54ec4465e7c6b148ULL},
        {SceneId::BistroInterior, 1, 0xd2685df0210de68aULL,
         0xdb20ab0e539528d8ULL},
        {SceneId::BistroInterior, 15, 0xe5859e27a917bde9ULL,
         0xc74fdcedade06768ULL},
        {SceneId::CountryKitchen, 1, 0x22e4e7b53587162dULL,
         0x738523233db2f392ULL},
        {SceneId::CountryKitchen, 15, 0x57d1b4cd65eeb967ULL,
         0x6886150f6d322880ULL},
    };
    for (const Golden &g : golden) {
        Scene s = makeScene(g.id, 0.12f);
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        const RayGenConfig cfg = perfbenchConfig(g.seed);
        const std::uint64_t ao = batchDigest(generateAoRays(s, bvh, cfg));
        const std::uint64_t photon =
            batchDigest(generatePhotonRays(s, bvh, cfg));
        EXPECT_EQ(ao, g.ao) << sceneShortName(g.id) << " seed " << g.seed
                            << " ao got 0x" << std::hex << ao;
        EXPECT_EQ(photon, g.photon)
            << sceneShortName(g.id) << " seed " << g.seed
            << " photon got 0x" << std::hex << photon;
    }

    // One quad under a light: about 5 in 6 photons miss at emission and
    // every bounce escapes, and the camera sees the quad's edge.
    Scene open{};
    open.mesh.addQuad(Vec3{-1, 0, -1}, Vec3{1, 0, -1}, Vec3{1, 0, 1},
                      Vec3{-1, 0, 1});
    open.camera = Camera(Vec3{0, 1.5f, 3}, Vec3{0.5f, 0, 0.5f},
                         Vec3{0, 1, 0}, 60.0f);
    Bvh open_bvh = BvhBuilder().build(open.mesh.triangles());
    const Vec3 light{0, 1, 0};
    const std::uint64_t open_golden[][2] = {
        {0x79f5c2300db1aa56ULL, 0xff9b434393be1b2dULL},
        {0xa1e4398c2bad716eULL, 0xd9aa63b3956c70ddULL}};
    for (std::uint64_t seed : {1u, 15u}) {
        RayGenConfig cfg;
        cfg.width = 32;
        cfg.height = 32;
        cfg.photonCount = 2000;
        cfg.seed = seed;
        const std::uint64_t ao =
            batchDigest(generateAoRays(open, open_bvh, cfg));
        const std::uint64_t photon =
            batchDigest(generatePhotonRays(open, open_bvh, cfg, &light));
        const auto &want = open_golden[seed == 1 ? 0 : 1];
        EXPECT_EQ(ao, want[0]) << "open seed " << seed << " ao got 0x"
                               << std::hex << ao;
        EXPECT_EQ(photon, want[1]) << "open seed " << seed
                                   << " photon got 0x" << std::hex << photon;
    }

    RayGenConfig three;
    three.photonCount = 3;
    const std::uint64_t tiny = batchDigest(
        generatePhotonRays(fixture().scene, fixture().bvh, three));
    EXPECT_EQ(tiny, 0xd5c5ece61f01e31bULL) << "3 photons got 0x" << std::hex << tiny;
}

} // namespace
} // namespace rtp
