/** @file BVH builder invariant tests. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "bvh/builder.hpp"
#include "scene/registry.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

std::vector<Triangle>
randomTriangles(int n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Triangle> tris;
    for (int i = 0; i < n; ++i) {
        Vec3 c{rng.nextRange(-10, 10), rng.nextRange(-10, 10),
               rng.nextRange(-10, 10)};
        // The third vertex is drawn before the second:
        // BvhBuild.GoldenDigest pins this draw order.
        Vec3 v2 = c + Vec3{rng.nextRange(-1, 1), rng.nextRange(0.01f, 1),
                           rng.nextRange(-1, 1)};
        Vec3 v1 = c + Vec3{rng.nextRange(0.01f, 1), rng.nextRange(-1, 1),
                           rng.nextRange(-1, 1)};
        tris.emplace_back(c, v1, v2);
    }
    return tris;
}

/** 64-bit FNV-1a over raw bytes. */
struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(const void *data, std::size_t bytes)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < bytes; ++i)
            h = (h ^ p[i]) * 0x100000001b3ULL;
    }
};

// The digest hashes BvhNode records as raw bytes, so they must have no
// padding: 6 floats of box plus 8 four-byte fields.
static_assert(sizeof(BvhNode) == 14 * 4);

/**
 * Digest of everything a build produces: node records, the primitive
 * permutation, the slot -> leaf map and the depth.
 */
std::uint64_t
bvhDigest(const Bvh &bvh)
{
    Fnv1a f;
    f.add(bvh.nodes().data(), bvh.nodes().size() * sizeof(BvhNode));
    f.add(bvh.primIndices().data(),
          bvh.primIndices().size() * sizeof(std::uint32_t));
    for (std::uint32_t slot = 0; slot < bvh.primIndices().size(); ++slot) {
        std::uint32_t leaf = bvh.leafOfPrimSlot(slot);
        f.add(&leaf, sizeof leaf);
    }
    std::uint32_t depth = bvh.maxDepth();
    f.add(&depth, sizeof depth);
    return f.h;
}

/** Triangles with every centroid at the origin (median fallback). */
std::vector<Triangle>
coincidentCentroidTriangles(int n)
{
    std::vector<Triangle> tris;
    for (int i = 0; i < n; ++i) {
        float s = 0.1f + 0.001f * static_cast<float>(i);
        tris.emplace_back(Vec3{-s, -s, 0}, Vec3{s, -s, 0},
                          Vec3{0, 2 * s, 0});
    }
    return tris;
}

/**
 * A flat slab in z = 0 whose vertices carry z = +0 or z = -0, so node
 * boxes depend on which zero min/max return on a tie.
 */
std::vector<Triangle>
signedZeroSlabTriangles(int n)
{
    Rng rng(77);
    std::vector<Triangle> tris;
    for (int i = 0; i < n; ++i) {
        float x = rng.nextRange(-10, 10), y = rng.nextRange(-10, 10);
        float z0 = (i % 2) ? -0.0f : 0.0f, z1 = (i % 3) ? 0.0f : -0.0f;
        tris.emplace_back(Vec3{x, y, z0}, Vec3{x + 0.5f, y, z1},
                          Vec3{x, y + 0.5f, -0.0f});
    }
    return tris;
}

TEST(BvhBuild, SingleTriangle)
{
    auto tris = randomTriangles(1, 1);
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.nodeCount(), 1u);
    EXPECT_TRUE(bvh.node(kBvhRoot).isLeaf());
    EXPECT_EQ(bvh.validate(tris.size()), "");
}

TEST(BvhBuild, EmptyThrows)
{
    std::vector<Triangle> empty;
    EXPECT_THROW(BvhBuilder().build(empty), std::invalid_argument);
}

TEST(BvhBuild, NonFiniteVertexThrowsNamingTheTriangle)
{
    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                         std::numeric_limits<float>::infinity()};
    for (float value : bad) {
        auto tris = randomTriangles(16, 3);
        Triangle t = tris[0];
        if (std::isnan(value))
            t.v0.x = value;
        else
            t.v2 = Vec3{value, 0, 0};
        tris.push_back(t);
        try {
            BvhBuilder().build(tris);
            ADD_FAILURE() << value << " accepted";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("triangle 16"),
                      std::string::npos)
                << e.what();
        }
    }
}

/** Parameterised over sizes: invariants hold at every scale. */
class BvhSizeTest : public ::testing::TestWithParam<int>
{
};

TEST_P(BvhSizeTest, ValidatesAndCoversAllPrims)
{
    auto tris = randomTriangles(GetParam(), 42 + GetParam());
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.validate(tris.size()), "") << "n=" << GetParam();
    // Root bounds must contain every triangle.
    Aabb root = bvh.sceneBounds();
    Aabb grown = root;
    grown.lo -= Vec3(1e-3f);
    grown.hi += Vec3(1e-3f);
    for (const auto &t : tris)
        EXPECT_TRUE(grown.contains(t.bounds()));
}

TEST_P(BvhSizeTest, DepthIsLogarithmicish)
{
    auto tris = randomTriangles(GetParam(), 7);
    Bvh bvh = BvhBuilder().build(tris);
    // SAH over uniformly random triangles should stay near log2(n),
    // certainly under 4*log2(n) + 8.
    double log2n = std::log2(std::max(2, GetParam()));
    EXPECT_LT(bvh.maxDepth(), 4 * log2n + 8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BvhSizeTest,
                         ::testing::Values(2, 5, 16, 100, 1000, 5000));

TEST(BvhBuild, LeafSizeRespected)
{
    BvhBuildConfig cfg;
    cfg.maxLeafSize = 2;
    auto tris = randomTriangles(500, 9);
    Bvh bvh = BvhBuilder(cfg).build(tris);
    for (const auto &n : bvh.nodes()) {
        if (n.isLeaf()) {
            EXPECT_LE(n.primCount, 8u); // SAH may keep small clusters
        }
    }
    EXPECT_EQ(bvh.validate(tris.size()), "");
}

TEST(BvhBuild, IdenticalCentroidsStillTerminate)
{
    // Many triangles with the same centroid force the median fallback.
    std::vector<Triangle> tris;
    for (int i = 0; i < 64; ++i) {
        float s = 0.1f + 0.01f * i;
        tris.emplace_back(Vec3{-s, -s, 0}, Vec3{s, -s, 0},
                          Vec3{0, 2 * s, 0});
    }
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.validate(tris.size()), "");
}

TEST(BvhBuild, AncestorWalk)
{
    auto tris = randomTriangles(200, 10);
    Bvh bvh = BvhBuilder().build(tris);
    for (std::uint32_t i = 0; i < bvh.nodeCount(); ++i) {
        // 0th ancestor is the node itself.
        EXPECT_EQ(bvh.ancestorOf(i, 0), i);
        // A huge k clamps at the root.
        EXPECT_EQ(bvh.ancestorOf(i, 10000), kBvhRoot);
        // k-th ancestor depth decreases by exactly min(k, depth).
        std::uint32_t a = bvh.ancestorOf(i, 3);
        std::uint32_t expect_depth =
            bvh.node(i).depth >= 3 ? bvh.node(i).depth - 3 : 0;
        EXPECT_EQ(bvh.node(a).depth, expect_depth);
    }
}

TEST(BvhBuild, EulerSubtreeContainment)
{
    auto tris = randomTriangles(300, 11);
    Bvh bvh = BvhBuilder().build(tris);
    for (std::uint32_t i = 0; i < bvh.nodeCount(); ++i) {
        const BvhNode &n = bvh.node(i);
        EXPECT_TRUE(bvh.inSubtree(kBvhRoot, i));
        EXPECT_TRUE(bvh.inSubtree(i, i));
        if (!n.isLeaf()) {
            EXPECT_TRUE(bvh.inSubtree(i, n.left));
            EXPECT_TRUE(bvh.inSubtree(i, n.right));
            EXPECT_FALSE(bvh.inSubtree(n.left, i));
            // Siblings are not in each other's subtree.
            EXPECT_FALSE(bvh.inSubtree(n.left, n.right));
        }
    }
}

TEST(BvhBuild, LeafOfPrimSlotRoundTrip)
{
    auto tris = randomTriangles(400, 12);
    Bvh bvh = BvhBuilder().build(tris);
    for (std::uint32_t slot = 0; slot < tris.size(); ++slot) {
        std::uint32_t leaf = bvh.leafOfPrimSlot(slot);
        const BvhNode &n = bvh.node(leaf);
        ASSERT_TRUE(n.isLeaf());
        EXPECT_GE(slot, n.firstPrim);
        EXPECT_LT(slot, n.firstPrim + n.primCount);
    }
}

TEST(BvhBuild, NodeAddressesAreDistinctAndAligned)
{
    auto tris = randomTriangles(100, 13);
    Bvh bvh = BvhBuilder().build(tris);
    EXPECT_EQ(bvh.nodeAddress(1) - bvh.nodeAddress(0), kBvhNodeBytes);
    EXPECT_EQ(bvh.triangleAddress(1) - bvh.triangleAddress(0),
              kTriangleBytes);
    EXPECT_NE(bvh.nodeAddress(0), bvh.triangleAddress(0));
}

TEST(BvhBuild, SceneBvhDepthInPaperBallpark)
{
    // At detail 0.12, tree depth should be in a plausible range for
    // architectural scenes (the paper's full-size scenes are 22-27).
    Scene s = makeScene(SceneId::CrytekSponza, 0.12f);
    Bvh bvh = BvhBuilder().build(s.mesh.triangles());
    EXPECT_GE(bvh.maxDepth(), 12u);
    EXPECT_LE(bvh.maxDepth(), 40u);
    EXPECT_EQ(bvh.validate(s.mesh.size()), "");
}

TEST(BvhBuild, ConfigOutOfRangeThrows)
{
    for (int bins : {-1, 0, 1, 65}) {
        BvhBuildConfig cfg;
        cfg.sahBins = bins;
        EXPECT_THROW(BvhBuilder{cfg}, std::invalid_argument) << bins;
    }
    for (int leaf : {-3, 0}) {
        BvhBuildConfig cfg;
        cfg.maxLeafSize = leaf;
        EXPECT_THROW(BvhBuilder{cfg}, std::invalid_argument) << leaf;
    }
    BvhBuildConfig edges;
    edges.sahBins = 2;
    edges.maxLeafSize = 1;
    EXPECT_NO_THROW(BvhBuilder{edges});
    edges.sahBins = 64;
    auto tris = randomTriangles(300, 14);
    EXPECT_EQ(BvhBuilder(edges).build(tris).validate(tris.size()), "");
}

/**
 * Pins every byte the builder returns. The digests were recorded from
 * the sequential recursive builder that calls std::fmin/std::fmax; any
 * change to the split decisions, the node order or a single box bit
 * moves them, and with them every simulated cycle.
 */
TEST(BvhBuild, GoldenDigest)
{
    const std::pair<SceneId, std::uint64_t> scenes[] = {
        {SceneId::Sibenik, 0x50805e9f74dc4cabULL},
        {SceneId::CrytekSponza, 0x32a13457be5887d6ULL},
        {SceneId::LostEmpire, 0xa0b6ecd80ed08dcdULL},
        {SceneId::LivingRoom, 0xd2a58d11267d08d5ULL},
        {SceneId::FireplaceRoom, 0xb0c01b4d8be812a8ULL},
        {SceneId::BistroInterior, 0x5f82f7f9d341fbb8ULL},
        {SceneId::CountryKitchen, 0xeb3998a08e2f2a86ULL},
    };
    for (const auto &[id, golden] : scenes) {
        Scene s = makeScene(id, 0.12f);
        Bvh bvh = BvhBuilder().build(s.mesh.triangles());
        EXPECT_EQ(bvhDigest(bvh), golden)
            << sceneShortName(id) << " got 0x" << std::hex
            << bvhDigest(bvh);
    }

    const std::pair<std::vector<Triangle>, std::uint64_t> shapes[] = {
        {randomTriangles(1, 1), 0xfc253ef345f7a57bULL},
        {coincidentCentroidTriangles(5000), 0x46412b8a70122cb7ULL},
        {signedZeroSlabTriangles(5000), 0xc75d692c90c11c66ULL},
    };
    for (const auto &[tris, golden] : shapes) {
        Bvh bvh = BvhBuilder().build(tris);
        EXPECT_EQ(bvh.validate(tris.size()), "");
        EXPECT_EQ(bvhDigest(bvh), golden)
            << tris.size() << " tris got 0x" << std::hex << bvhDigest(bvh);
    }
}

TEST(BvhBuild, RepeatedBuildsIdentical)
{
    Scene s = makeScene(SceneId::LivingRoom, 0.12f);
    const Bvh first = BvhBuilder().build(s.mesh.triangles());
    for (int i = 0; i < 8; ++i) {
        Bvh again = BvhBuilder().build(s.mesh.triangles());
        ASSERT_EQ(again.nodeCount(), first.nodeCount());
        EXPECT_EQ(std::memcmp(again.nodes().data(), first.nodes().data(),
                              first.nodes().size() * sizeof(BvhNode)),
                  0);
        EXPECT_EQ(bvhDigest(again), bvhDigest(first));
    }
}

} // namespace
} // namespace rtp
