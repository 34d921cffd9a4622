/**
 * @file
 * Binned surface-area-heuristic BVH builder.
 *
 * Produces the Aila–Laine-style tree (Section 2.4) the RT unit traverses.
 * A post-pass fills parent links, node depths, and Euler-tour intervals so
 * the predictor's Go Up Level and the limit-study oracles need no extra
 * simulated memory accesses.
 */

#pragma once

#include <vector>

#include "bvh/bvh.hpp"
#include "geometry/triangle.hpp"

namespace rtp {

/** Builder configuration. */
struct BvhBuildConfig
{
    int maxLeafSize = 4;    //!< split to at most this many prims/leaf, >= 1
    int sahBins = 16;       //!< number of SAH bins per axis, in [2, 64]
    float traversalCost = 1.0f; //!< SAH traversal constant
    float intersectCost = 1.0f; //!< SAH per-primitive constant
};

/**
 * Builds BVHs over triangle arrays. The top two tree levels are built on
 * the calling thread and the (at most four) subtrees below them on up to
 * three extra threads, each joined before build() returns. The result is
 * the same, byte for byte, as a sequential preorder build.
 */
class BvhBuilder
{
  public:
    /** @throws std::invalid_argument if @p config is out of range. */
    explicit BvhBuilder(BvhBuildConfig config = {});

    /**
     * Build a BVH.
     * @param triangles Scene triangle soup (must be non-empty).
     * @throws std::invalid_argument if @p triangles is empty or a vertex
     *         coordinate is NaN or infinite (the message names the
     *         triangle index).
     */
    Bvh build(const std::vector<Triangle> &triangles) const;

  private:
    BvhBuildConfig config_;
};

} // namespace rtp
