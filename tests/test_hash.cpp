/** @file Ray hashing scheme tests (Section 4.2). */

#include <gtest/gtest.h>

#include "core/hash.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

Aabb
unitSceneBounds()
{
    return Aabb{{0, 0, 0}, {100, 100, 100}};
}

Ray
makeRay(Vec3 o, Vec3 d)
{
    Ray r;
    r.origin = o;
    r.dir = normalize(d);
    return r;
}

TEST(FoldHash, IdentityWhenNarrow)
{
    EXPECT_EQ(foldHash(0x5A, 8, 8), 0x5Au);
    EXPECT_EQ(foldHash(0x5A, 7, 8), 0x5Au);
}

TEST(FoldHash, XorFoldsComponents)
{
    // 16 bits into 8: high byte XOR low byte.
    EXPECT_EQ(foldHash(0xAB12, 16, 8), 0xABu ^ 0x12u);
    // 15 bits into 8: component 2 has 7 bits.
    EXPECT_EQ(foldHash(0x7FFF, 15, 8), 0xFFu ^ 0x7Fu);
}

TEST(FoldHash, ZeroWidth)
{
    EXPECT_EQ(foldHash(0x1234, 16, 0), 0u);
}

TEST(GridSpherical, DefaultWidthIs15Bits)
{
    RayHasher h({HashFunction::GridSpherical, 5, 3, 0.15f},
                unitSceneBounds());
    EXPECT_EQ(h.hashBits(), 15);
    Rng rng(1);
    for (int i = 0; i < 500; ++i) {
        Vec3 d{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
               rng.nextRange(-1, 1) + 1e-3f};
        Vec3 o{rng.nextRange(0, 100), rng.nextRange(0, 100),
               rng.nextRange(0, 100)};
        Ray r = makeRay(o, d);
        EXPECT_LT(h.hash(r), 1u << 15);
    }
}

TEST(GridSpherical, SameCellSameDirectionCollides)
{
    RayHasher h({HashFunction::GridSpherical, 5, 3, 0.15f},
                unitSceneBounds());
    // 5 origin bits over 100 units -> 3.125-unit cells. Directions sit
    // comfortably inside one theta/phi bucket (22.5/32 degree buckets).
    Ray a = makeRay({10.0f, 10.0f, 10.0f}, {1.0f, 0.10f, 0.10f});
    Ray b = makeRay({10.5f, 10.2f, 10.9f}, {1.0f, 0.12f, 0.11f});
    EXPECT_EQ(h.hash(a), h.hash(b));
}

TEST(GridSpherical, FarOriginsDiffer)
{
    RayHasher h({HashFunction::GridSpherical, 5, 3, 0.15f},
                unitSceneBounds());
    Ray a = makeRay({10, 10, 10}, {0, 0, 1});
    Ray b = makeRay({90, 90, 90}, {0, 0, 1});
    EXPECT_NE(h.hash(a), h.hash(b));
}

TEST(GridSpherical, OppositeDirectionsDiffer)
{
    RayHasher h({HashFunction::GridSpherical, 5, 3, 0.15f},
                unitSceneBounds());
    Ray a = makeRay({50, 50, 50}, {0, 0, 1});
    Ray b = makeRay({50, 50, 50}, {0, 0, -1});
    EXPECT_NE(h.hash(a), h.hash(b));
}

TEST(GridSpherical, MoreBitsTightenCollisions)
{
    // With more origin bits, nearby-but-distinct origins stop colliding.
    RayHasher coarse({HashFunction::GridSpherical, 3, 3, 0.15f},
                     unitSceneBounds());
    RayHasher fine({HashFunction::GridSpherical, 5, 3, 0.15f},
                   unitSceneBounds());
    Rng rng(2);
    int coarse_coll = 0, fine_coll = 0;
    for (int i = 0; i < 2000; ++i) {
        Vec3 o{rng.nextRange(0, 95), rng.nextRange(0, 95),
               rng.nextRange(0, 95)};
        Vec3 d{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
               rng.nextRange(-1, 1) + 1e-3f};
        Ray a = makeRay(o, d);
        Ray b = makeRay(o + Vec3{4.0f, 0, 0}, d);
        if (coarse.hash(a) == coarse.hash(b))
            coarse_coll++;
        if (fine.hash(a) == fine.hash(b))
            fine_coll++;
    }
    EXPECT_GT(coarse_coll, fine_coll);
}

TEST(TwoPoint, WidthAndDeterminism)
{
    RayHasher h({HashFunction::TwoPoint, 5, 3, 0.15f},
                unitSceneBounds());
    EXPECT_EQ(h.hashBits(), 15);
    Ray r = makeRay({10, 20, 30}, {1, 1, 0});
    EXPECT_EQ(h.hash(r), h.hash(r));
}

TEST(TwoPoint, LengthRatioChangesHash)
{
    RayHasher near({HashFunction::TwoPoint, 5, 3, 0.05f},
                   unitSceneBounds());
    RayHasher far({HashFunction::TwoPoint, 5, 3, 0.35f},
                  unitSceneBounds());
    Rng rng(3);
    int diff = 0;
    for (int i = 0; i < 200; ++i) {
        Vec3 d{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
               rng.nextRange(-1, 1) + 1e-3f};
        Vec3 o{rng.nextRange(10, 90), rng.nextRange(10, 90),
               rng.nextRange(10, 90)};
        Ray r = makeRay(o, d);
        if (near.hash(r) != far.hash(r))
            diff++;
    }
    EXPECT_GT(diff, 100);
}

TEST(TwoPoint, SimilarRaysCollide)
{
    RayHasher h({HashFunction::TwoPoint, 4, 3, 0.15f},
                unitSceneBounds());
    Ray a = makeRay({40.0f, 40.0f, 40.0f}, {0, 0, 1});
    Ray b = makeRay({40.3f, 40.1f, 40.2f}, {0.005f, 0.0f, 1});
    EXPECT_EQ(h.hash(a), h.hash(b));
}

TEST(GridHashBlock, QuantisesAgainstSceneBounds)
{
    RayHasher h({HashFunction::GridSpherical, 5, 3, 0.15f},
                unitSceneBounds());
    // Corners map to extreme cells.
    EXPECT_EQ(h.gridHash({0, 0, 0}), 0u);
    std::uint32_t max_cell = 31;
    EXPECT_EQ(h.gridHash({100, 100, 100}),
              (max_cell << 10) | (max_cell << 5) | max_cell);
    // Out-of-bounds points clamp.
    EXPECT_EQ(h.gridHash({-10, -10, -10}), 0u);
}

/**
 * The core predictor premise (Section 4.2): nearby similar rays collide
 * far more often than random ray pairs.
 */
TEST(Hashing, LocalityBeatsRandomProperty)
{
    for (HashFunction fn :
         {HashFunction::GridSpherical, HashFunction::TwoPoint}) {
        RayHasher h({fn, 5, 3, 0.15f}, unitSceneBounds());
        Rng rng(4);
        int near_coll = 0, rand_coll = 0;
        const int n = 3000;
        for (int i = 0; i < n; ++i) {
            Vec3 o{rng.nextRange(5, 95), rng.nextRange(5, 95),
                   rng.nextRange(5, 95)};
            Vec3 d = normalize(Vec3{rng.nextRange(-1, 1),
                                    rng.nextRange(-1, 1),
                                    rng.nextRange(-1, 1) + 1e-3f});
            Ray a = makeRay(o, d);
            Ray near_b = makeRay(o + Vec3{0.3f, 0.3f, 0.3f},
                                 d + Vec3{0.02f, 0.02f, 0.0f});
            Vec3 rand_d{rng.nextRange(-1, 1), rng.nextRange(-1, 1),
                        rng.nextRange(-1, 1) + 1e-3f};
            Vec3 rand_o{rng.nextRange(5, 95), rng.nextRange(5, 95),
                        rng.nextRange(5, 95)};
            Ray rand_b = makeRay(rand_o, rand_d);
            if (h.hash(a) == h.hash(near_b))
                near_coll++;
            if (h.hash(a) == h.hash(rand_b))
                rand_coll++;
        }
        EXPECT_GT(near_coll, 5 * std::max(1, rand_coll))
            << "hash function " << static_cast<int>(fn);
    }
}

} // namespace
} // namespace rtp
