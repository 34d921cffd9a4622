/**
 * @file
 * Small, fast, deterministic pseudo-random number generator.
 *
 * The simulator, the procedural scene generators, and the ray generators
 * all need reproducible randomness that is independent of the platform's
 * std::mt19937 ordering. We use the PCG32 generator (O'Neill, 2014): a
 * 64-bit LCG state with an output permutation. It is tiny, statistically
 * solid for our purposes, and trivially seedable per-stream.
 */

#pragma once

#include <cstdint>

namespace rtp {

/** PCG32 pseudo-random number generator (deterministic across platforms). */
class Rng
{
  public:
    /**
     * Construct a generator.
     * @param seed Initial state seed.
     * @param stream Stream selector; different streams are independent.
     */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL)
    {
        state_ = 0u;
        inc_ = (stream << 1u) | 1u;
        nextU32();
        state_ += seed;
        nextU32();
    }

    /** @return A uniformly distributed 32-bit value. */
    std::uint32_t
    nextU32()
    {
        std::uint64_t old = state_;
        state_ = old * kMultiplier + inc_;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /**
     * Skip @p delta draws in O(log delta): afterwards the generator is
     * where @p delta calls of nextU32() would have left it (Brown,
     * "Random number generation with arbitrary strides", 1994).
     * nextU32, nextFloat and nextRange are one draw each.
     */
    void
    advance(std::uint64_t delta)
    {
        std::uint64_t cur_mult = kMultiplier;
        std::uint64_t cur_plus = inc_;
        std::uint64_t acc_mult = 1u;
        std::uint64_t acc_plus = 0u;
        for (; delta > 0; delta >>= 1u) {
            if (delta & 1u) {
                acc_mult *= cur_mult;
                acc_plus = acc_plus * cur_mult + cur_plus;
            }
            cur_plus = (cur_mult + 1u) * cur_plus;
            cur_mult *= cur_mult;
        }
        state_ = acc_mult * state_ + acc_plus;
    }

    /** @return A uniformly distributed value in [0, bound). */
    std::uint32_t
    nextBounded(std::uint32_t bound)
    {
        // Lemire's nearly-divisionless method would be overkill; simple
        // modulo bias is acceptable for workload generation.
        return bound == 0 ? 0 : nextU32() % bound;
    }

    /** @return A uniform float in [0, 1). */
    float
    nextFloat()
    {
        return static_cast<float>(nextU32() >> 8) * (1.0f / 16777216.0f);
    }

    /** @return A uniform float in [lo, hi). */
    float
    nextRange(float lo, float hi)
    {
        return lo + (hi - lo) * nextFloat();
    }

  private:
    static constexpr std::uint64_t kMultiplier = 6364136223846793005ULL;

    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace rtp
