/** @file Orthonormal basis and hemisphere sampling tests. */

#include <gtest/gtest.h>

#include "geometry/onb.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

TEST(Onb, BasisIsOrthonormalProperty)
{
    Rng rng(21);
    for (int i = 0; i < 300; ++i) {
        Vec3 n = normalize(Vec3{rng.nextRange(-1, 1),
                                rng.nextRange(-1, 1),
                                rng.nextRange(-1, 1)});
        if (length(n) < 0.5f)
            continue;
        Onb onb(n);
        EXPECT_NEAR(length(onb.tangent), 1.0f, 1e-4f);
        EXPECT_NEAR(length(onb.bitangent), 1.0f, 1e-4f);
        EXPECT_NEAR(dot(onb.tangent, onb.bitangent), 0.0f, 1e-4f);
        EXPECT_NEAR(dot(onb.tangent, onb.normal), 0.0f, 1e-4f);
        EXPECT_NEAR(dot(onb.bitangent, onb.normal), 0.0f, 1e-4f);
    }
}

TEST(Onb, ToWorldMapsZToNormal)
{
    Vec3 n = normalize(Vec3{1.0f, 2.0f, -0.5f});
    Onb onb(n);
    Vec3 mapped = onb.toWorld(Vec3{0, 0, 1});
    EXPECT_NEAR(mapped.x, n.x, 1e-5f);
    EXPECT_NEAR(mapped.y, n.y, 1e-5f);
    EXPECT_NEAR(mapped.z, n.z, 1e-5f);
}

TEST(Onb, HandlesNegativeZNormal)
{
    Onb onb(Vec3{0, 0, -1});
    EXPECT_NEAR(dot(onb.tangent, onb.bitangent), 0.0f, 1e-5f);
    EXPECT_NEAR(length(onb.tangent), 1.0f, 1e-5f);
}

TEST(CosineSample, StaysInUpperHemisphere)
{
    Rng rng(22);
    for (int i = 0; i < 500; ++i) {
        float u2 = rng.nextFloat();
        float u1 = rng.nextFloat();
        Vec3 d = cosineSampleHemisphere(u1, u2);
        EXPECT_GE(d.z, 0.0f);
        EXPECT_NEAR(length(d), 1.0f, 1e-4f);
    }
}

TEST(CosineSample, MeanCosineMatchesDistribution)
{
    // For a cosine-weighted hemisphere, E[cos(theta)] = 2/3.
    Rng rng(23);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        float u2 = rng.nextFloat();
        float u1 = rng.nextFloat();
        acc += cosineSampleHemisphere(u1, u2).z;
    }
    EXPECT_NEAR(acc / n, 2.0 / 3.0, 0.01);
}

TEST(Spherical, AxesMapToExpectedAngles)
{
    float theta, phi;
    directionToSpherical(Vec3{0, 0, 1}, theta, phi);
    EXPECT_NEAR(theta, 0.0f, 1e-3f);
    directionToSpherical(Vec3{0, 0, -1}, theta, phi);
    EXPECT_NEAR(theta, 180.0f, 0.01f);
    directionToSpherical(Vec3{1, 0, 0}, theta, phi);
    EXPECT_NEAR(theta, 90.0f, 1e-3f);
    EXPECT_NEAR(phi, 0.0f, 1e-3f);
    directionToSpherical(Vec3{0, 1, 0}, theta, phi);
    EXPECT_NEAR(phi, 90.0f, 1e-3f);
    directionToSpherical(Vec3{-1, 0, 0}, theta, phi);
    EXPECT_NEAR(phi, 180.0f, 1e-3f);
}

TEST(Spherical, RangesRespectedProperty)
{
    Rng rng(24);
    for (int i = 0; i < 1000; ++i) {
        Vec3 d = normalize(Vec3{rng.nextRange(-1, 1),
                                rng.nextRange(-1, 1),
                                rng.nextRange(-1, 1)});
        if (std::isnan(d.x))
            continue;
        float theta, phi;
        directionToSpherical(d, theta, phi);
        EXPECT_GE(theta, 0.0f);
        EXPECT_LT(theta, 180.0f);
        EXPECT_GE(phi, 0.0f);
        EXPECT_LT(phi, 360.0f);
    }
}

} // namespace
} // namespace rtp
