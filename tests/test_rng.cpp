/** @file PCG32 RNG tests. */

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace rtp {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU32(), b.nextU32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(123), b(124);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.nextU32() == b.nextU32())
            same++;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, DifferentStreamsDiffer)
{
    Rng a(123, 1), b(123, 2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.nextU32() == b.nextU32())
            same++;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, FloatRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        float f = rng.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

TEST(Rng, RangeRespected)
{
    Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        float f = rng.nextRange(-2.5f, 7.5f);
        EXPECT_GE(f, -2.5f);
        EXPECT_LT(f, 7.5f);
    }
}

TEST(Rng, BoundedRespected)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
    EXPECT_EQ(rng.nextBounded(0), 0u);
}

TEST(Rng, RoughUniformityOfFloats)
{
    Rng rng(10);
    int buckets[10] = {};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        buckets[static_cast<int>(rng.nextFloat() * 10)]++;
    for (int b = 0; b < 10; ++b)
        EXPECT_NEAR(buckets[b], n / 10, n / 100);
}

TEST(Rng, AdvanceMatchesRepeatedDraws)
{
    for (std::uint64_t n :
         {0ull, 1ull, 2ull, 63ull, 64ull, 1000ull, (1ull << 20) + 3}) {
        Rng stepped(99, 41), jumped(99, 41);
        for (std::uint64_t i = 0; i < n; ++i)
            stepped.nextU32();
        jumped.advance(n);
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(jumped.nextU32(), stepped.nextU32()) << "n=" << n;
    }
}

} // namespace
} // namespace rtp
