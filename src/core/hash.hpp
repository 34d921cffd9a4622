/**
 * @file
 * Ray hashing schemes (Section 4.2 of the paper).
 *
 * The predictor identifies "similar" rays by hashing quantised ray
 * parameters; similar rays should collide (constructive aliasing) while
 * dissimilar rays should not. Two functions are implemented:
 *
 *  - Grid Spherical (4.2.1): quantised cartesian origin (n bits per axis
 *    via the scene bounding box) XOR quantised spherical direction
 *    (m bits of theta, m+1 bits of phi).
 *  - Two Point (4.2.2): quantised origin XOR quantised estimated target
 *    point t = o + r * l * d, where l is the maximum extent of the scene
 *    bounds and r a fixed estimated length ratio.
 *
 * Hashes wider than the table index are folded by XOR-ing components
 * (Section 4.1, gshare-style folding).
 *
 * Degenerate rays: zero-length, denormal-length, or non-finite
 * directions cannot be normalised (geometry/vec3.hpp documents
 * normalize() as undefined for the zero vector). The hasher maps every
 * such direction to one canonical unit vector (+x), so degenerate rays
 * share a single well-defined bucket instead of invoking UB via
 * NaN-to-integer casts. Non-finite or out-of-bounds origin coordinates
 * clamp to the nearest grid cell the same way ordinary out-of-bounds
 * points always have.
 */

#pragma once

#include <cstdint>

#include "geometry/aabb.hpp"
#include "geometry/ray.hpp"

namespace rtp {

/** Which hash function the predictor uses. */
enum class HashFunction : std::uint8_t
{
    GridSpherical,
    TwoPoint,
};

/**
 * Hashing configuration (Table 3 defaults: Grid Spherical, 5/3 bits).
 *
 * Bit-width contract: hashBits() reports the *nominal* key width
 * max(3n, 2m+1), which may exceed 32 for wide configurations; the
 * stored pattern is always 32 bits, so nominal bits past bit 31 are
 * zero. The hasher itself clamps its internal shift amounts to the
 * defined range (origin n at 15, direction m at 30), so no
 * configuration — including negative or oversized bit counts — shifts
 * past the word width; within the previously defined range the
 * produced hashes are unchanged. Consumers of hashBits() (foldHash)
 * likewise saturate their shifts at 32.
 */
struct HashConfig
{
    HashFunction function = HashFunction::GridSpherical;
    int originBits = 5;    //!< n: bits per origin axis
    int directionBits = 3; //!< m: bits of theta (phi gets m+1)
    float lengthRatio = 0.15f; //!< r for Two Point
};

/**
 * XOR-fold an @p n_bits wide value into @p m_bits
 * (splits into ceil(n/m) components combined with bitwise XOR).
 *
 * Bit-width contract: @p hash is a 32-bit pattern, so both widths are
 * treated as saturating at 32 — m_bits >= 32 returns the hash
 * unchanged (it already fits), n_bits > 32 folds only the 32 real
 * bits, and m_bits <= 0 folds everything into zero. No shift ever
 * reaches the UB range [32, inf).
 */
std::uint32_t foldHash(std::uint32_t hash, int n_bits, int m_bits);

/**
 * Normalise @p d, mapping every degenerate direction (zero vector,
 * length below sqrt(FLT_MIN), or any non-finite component) to the
 * canonical +x unit vector. For every direction normalize() handles
 * the result is bitwise identical to normalize(d). The hasher uses
 * this so degenerate rays fall into one well-defined bucket instead of
 * invoking UB downstream.
 */
Vec3 canonicalUnitDirection(const Vec3 &d);

/** Hashes rays for predictor lookups in a fixed scene. */
class RayHasher
{
  public:
    RayHasher(const HashConfig &config, const Aabb &scene_bounds);

    /** @return The full hash pattern for @p ray. */
    std::uint32_t hash(const Ray &ray) const;

    /** @return Width of the produced hash in bits. */
    int hashBits() const;

    /** Quantise a point to the 3n-bit grid key (Grid Hash block). */
    std::uint32_t gridHash(const Vec3 &point) const;

    const HashConfig &
    config() const
    {
        return config_;
    }

  private:
    std::uint32_t hashGridSpherical(const Ray &ray) const;
    std::uint32_t hashTwoPoint(const Ray &ray) const;

    HashConfig config_;
    Aabb bounds_;
    Vec3 invExtent_;
    float maxExtent_ = 1.0f;
};

} // namespace rtp
