/** @file Unit tests for Vec3. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "geometry/vec3.hpp"
#include "util/rng.hpp"

namespace rtp {
namespace {

TEST(Vec3, ArithmeticBasics)
{
    Vec3 a{1.0f, 2.0f, 3.0f};
    Vec3 b{4.0f, 5.0f, 6.0f};
    EXPECT_EQ(a + b, Vec3(5.0f, 7.0f, 9.0f));
    EXPECT_EQ(b - a, Vec3(3.0f, 3.0f, 3.0f));
    EXPECT_EQ(a * 2.0f, Vec3(2.0f, 4.0f, 6.0f));
    EXPECT_EQ(2.0f * a, a * 2.0f);
    EXPECT_EQ(a * b, Vec3(4.0f, 10.0f, 18.0f));
    EXPECT_EQ(a / 2.0f, Vec3(0.5f, 1.0f, 1.5f));
    EXPECT_EQ(-a, Vec3(-1.0f, -2.0f, -3.0f));
}

TEST(Vec3, CompoundAssignment)
{
    Vec3 v{1.0f, 1.0f, 1.0f};
    v += Vec3{1.0f, 2.0f, 3.0f};
    EXPECT_EQ(v, Vec3(2.0f, 3.0f, 4.0f));
    v -= Vec3{1.0f, 1.0f, 1.0f};
    EXPECT_EQ(v, Vec3(1.0f, 2.0f, 3.0f));
    v *= 3.0f;
    EXPECT_EQ(v, Vec3(3.0f, 6.0f, 9.0f));
}

TEST(Vec3, IndexAccess)
{
    Vec3 v{7.0f, 8.0f, 9.0f};
    EXPECT_EQ(v[0], 7.0f);
    EXPECT_EQ(v[1], 8.0f);
    EXPECT_EQ(v[2], 9.0f);
    v[1] = 42.0f;
    EXPECT_EQ(v.y, 42.0f);
}

TEST(Vec3, DotAndCross)
{
    Vec3 x{1.0f, 0.0f, 0.0f};
    Vec3 y{0.0f, 1.0f, 0.0f};
    Vec3 z{0.0f, 0.0f, 1.0f};
    EXPECT_EQ(dot(x, y), 0.0f);
    EXPECT_EQ(cross(x, y), z);
    EXPECT_EQ(cross(y, z), x);
    EXPECT_EQ(cross(z, x), y);
    EXPECT_EQ(dot(Vec3(1, 2, 3), Vec3(4, 5, 6)), 32.0f);
}

TEST(Vec3, LengthAndNormalize)
{
    Vec3 v{3.0f, 4.0f, 0.0f};
    EXPECT_FLOAT_EQ(length(v), 5.0f);
    EXPECT_FLOAT_EQ(lengthSquared(v), 25.0f);
    Vec3 n = normalize(v);
    EXPECT_NEAR(length(n), 1.0f, 1e-6f);
    EXPECT_NEAR(n.x, 0.6f, 1e-6f);
}

TEST(Vec3, MinMaxLerp)
{
    Vec3 a{1.0f, 5.0f, 3.0f};
    Vec3 b{2.0f, 4.0f, 6.0f};
    EXPECT_EQ(min(a, b), Vec3(1.0f, 4.0f, 3.0f));
    EXPECT_EQ(max(a, b), Vec3(2.0f, 5.0f, 6.0f));
    EXPECT_EQ(lerp(a, b, 0.0f), a);
    EXPECT_EQ(lerp(a, b, 1.0f), b);
    Vec3 mid = lerp(a, b, 0.5f);
    EXPECT_FLOAT_EQ(mid.x, 1.5f);
}

TEST(Vec3, MinMaxSignedZeroTieTakesFirstOperand)
{
    // The BVH boxes were built under this tie rule (see fminExact).
    const Vec3 pz{0.0f, 0.0f, 0.0f};
    const Vec3 nz{-0.0f, -0.0f, -0.0f};
    EXPECT_TRUE(std::signbit(min(nz, pz).x));  // min(-0, +0) = -0
    EXPECT_FALSE(std::signbit(min(pz, nz).y)); // min(+0, -0) = +0
    EXPECT_TRUE(std::signbit(max(nz, pz).z));  // max(-0, +0) = -0
    EXPECT_FALSE(std::signbit(max(pz, nz).x)); // max(+0, -0) = +0
}

TEST(Vec3, MinMaxDropNaNOperand)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const Vec3 n{nan, nan, nan};
    const Vec3 v{1.0f, -2.0f, 3.0f};
    EXPECT_EQ(min(n, v), v);
    EXPECT_EQ(min(v, n), v);
    EXPECT_EQ(max(n, v), v);
    EXPECT_EQ(max(v, n), v);
    EXPECT_TRUE(std::isnan(min(n, n).x));
    EXPECT_TRUE(std::isnan(max(n, n).x));
}

TEST(Vec3, CrossIsOrthogonalProperty)
{
    Rng rng(1);
    for (int i = 0; i < 200; ++i) {
        Vec3 a{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Vec3 b{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Vec3 c = cross(a, b);
        EXPECT_NEAR(dot(c, a), 0.0f, 1e-3f);
        EXPECT_NEAR(dot(c, b), 0.0f, 1e-3f);
    }
}

TEST(Vec3, TriangleInequalityProperty)
{
    Rng rng(2);
    for (int i = 0; i < 200; ++i) {
        Vec3 a{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        Vec3 b{rng.nextRange(-5, 5), rng.nextRange(-5, 5),
               rng.nextRange(-5, 5)};
        EXPECT_LE(length(a + b), length(a) + length(b) + 1e-4f);
    }
}

} // namespace
} // namespace rtp
