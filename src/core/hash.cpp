#include "core/hash.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/onb.hpp"

namespace rtp {

namespace {

/**
 * Clamp configured per-axis origin bits to the defined shift range:
 * at n = 16 the key packing's qx << 2n reaches the word width. For
 * n <= 15 (everything that was previously well defined) the produced
 * key is unchanged; key bits past bit 31 are dropped by the word, as
 * they always were for n > 10.
 */
int
clampOriginBits(int n)
{
    return std::clamp(n, 0, 15);
}

/** Same for direction bits: theta_key << (m + 1) caps at m = 30. */
int
clampDirectionBits(int m)
{
    return std::clamp(m, 0, 30);
}

} // namespace

// For any direction normalize() handles, the result is bitwise
// identical to normalize(d): the same dot/sqrt/divide chain. The
// FLT_MIN bound on the squared length keeps 1/length finite, so the
// division can never manufacture infinities either.
Vec3
canonicalUnitDirection(const Vec3 &d)
{
    float len2 = dot(d, d);
    if (!std::isfinite(len2) ||
        len2 < std::numeric_limits<float>::min())
        return Vec3{1.0f, 0.0f, 0.0f};
    return d / std::sqrt(len2);
}

std::uint32_t
foldHash(std::uint32_t hash, int n_bits, int m_bits)
{
    if (m_bits <= 0)
        return 0;
    // A 32-bit-or-wider target already holds the whole 32-bit hash;
    // computing the mask with (1u << m_bits) would shift past the word.
    if (m_bits >= 32)
        return hash;
    // The hash has no bits above 31, so wider claimed inputs fold the
    // same 32 real bits (and the loop's shifts stay below 32).
    if (n_bits > 32)
        n_bits = 32;
    if (n_bits <= m_bits)
        return hash & ((1u << m_bits) - 1);
    std::uint32_t mask = (1u << m_bits) - 1;
    std::uint32_t folded = 0;
    for (int shift = 0; shift < n_bits; shift += m_bits)
        folded ^= (hash >> shift) & mask;
    return folded;
}

RayHasher::RayHasher(const HashConfig &config, const Aabb &scene_bounds)
    : config_(config), bounds_(scene_bounds)
{
    Vec3 ext = bounds_.extent();
    invExtent_ = Vec3{ext.x > 0 ? 1.0f / ext.x : 0.0f,
                      ext.y > 0 ? 1.0f / ext.y : 0.0f,
                      ext.z > 0 ? 1.0f / ext.z : 0.0f};
    maxExtent_ = std::max({ext.x, ext.y, ext.z, 1e-12f});
}

int
RayHasher::hashBits() const
{
    // Both functions produce max(3n, direction-block) bits; the origin
    // grid key (3n bits) dominates for all configurations we sweep.
    // This is the *nominal* width — it may exceed 32 (e.g. 11 origin
    // bits = 33), in which case the stored 32-bit pattern simply has
    // no bits above 31 and every consumer (foldHash) saturates its
    // shifts at the word width.
    int origin_bits = 3 * std::max(0, config_.originBits);
    if (config_.function == HashFunction::GridSpherical) {
        int dir_bits = 2 * std::max(0, config_.directionBits) + 1;
        return std::max(origin_bits, dir_bits);
    }
    return origin_bits;
}

std::uint32_t
RayHasher::gridHash(const Vec3 &point) const
{
    int n = clampOriginBits(config_.originBits);
    std::uint32_t levels = 1u << n;
    // Quantise without the int round-trip: NaN and anything at or past
    // the grid's top edge clamp to an end cell before the cast, so the
    // float-to-integer conversion is always in range (the old
    // static_cast<int> was UB for NaN and for products beyond
    // INT_MAX). For every input the old code handled, the branches
    // reproduce its truncate-then-clamp result exactly.
    auto quant = [&](float v, float lo, float inv) -> std::uint32_t {
        float f = (v - lo) * inv * levels;
        if (!(f > 0.0f)) // NaN or <= 0: lowest cell
            return 0;
        if (f >= static_cast<float>(levels))
            return levels - 1;
        return static_cast<std::uint32_t>(f);
    };
    std::uint32_t qx = quant(point.x, bounds_.lo.x, invExtent_.x);
    std::uint32_t qy = quant(point.y, bounds_.lo.y, invExtent_.y);
    std::uint32_t qz = quant(point.z, bounds_.lo.z, invExtent_.z);
    return (qx << (2 * n)) | (qy << n) | qz;
}

std::uint32_t
RayHasher::hashGridSpherical(const Ray &ray) const
{
    std::uint32_t origin_key = gridHash(ray.origin);

    float theta_deg, phi_deg;
    directionToSpherical(canonicalUnitDirection(ray.dir), theta_deg,
                         phi_deg);
    // Discretise to integers then keep the most significant m (theta,
    // 8-bit range) and m+1 (phi, 9-bit range) bits.
    int m = clampDirectionBits(config_.directionBits);
    auto itheta = static_cast<std::uint32_t>(theta_deg); // [0, 180)
    auto iphi = static_cast<std::uint32_t>(phi_deg);     // [0, 360)
    std::uint32_t theta_key = itheta >> (8 - std::min(m, 8));
    std::uint32_t phi_key = iphi >> (9 - std::min(m + 1, 9));
    std::uint32_t dir_key = (theta_key << (m + 1)) | phi_key;

    return origin_key ^ dir_key;
}

std::uint32_t
RayHasher::hashTwoPoint(const Ray &ray) const
{
    std::uint32_t origin_key = gridHash(ray.origin);
    Vec3 target = ray.origin + canonicalUnitDirection(ray.dir) *
                                   (config_.lengthRatio * maxExtent_);
    std::uint32_t target_key = gridHash(target);
    return origin_key ^ target_key;
}

std::uint32_t
RayHasher::hash(const Ray &ray) const
{
    return config_.function == HashFunction::GridSpherical
               ? hashGridSpherical(ray)
               : hashTwoPoint(ray);
}

} // namespace rtp
