/**
 * @file
 * Software reference BVH traversal (Algorithm 1 in the paper).
 *
 * The cycle-level RT unit implements the same while-while loop as a state
 * machine; this module provides the functional reference used to verify
 * the RT unit's results, to collect traversal traces (Figure 1's memory
 * access distribution), and to drive the Section 6.3 limit-study oracles.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "bvh/bvh.hpp"
#include "geometry/intersect.hpp"
#include "geometry/ray.hpp"
#include "geometry/triangle.hpp"

namespace rtp {

/** Counters and optional trace collected during one traversal. */
struct TraversalStats
{
    std::uint64_t nodesFetched = 0;  //!< interior + leaf node fetches
    std::uint64_t interiorFetched = 0;
    std::uint64_t leavesFetched = 0;
    std::uint64_t boxTests = 0;
    std::uint64_t triTests = 0;
    std::uint32_t maxStackDepth = 0;
    bool recordTrace = false;
    std::vector<std::uint32_t> nodeTrace; //!< fetched node indices in order
};

/**
 * Any-hit (occlusion) traversal, Algorithm 1.
 *
 * @param bvh The BVH.
 * @param triangles Original triangle array.
 * @param ray The occlusion ray.
 * @param stats Optional stats accumulator.
 * @param start_node Node to start from (kBvhRoot for a full traversal;
 *        a predicted node during prediction verification).
 * @return Hit record (rec.hit true on any intersection).
 */
HitRecord traverseAnyHit(const Bvh &bvh,
                         const std::vector<Triangle> &triangles,
                         const Ray &ray, TraversalStats *stats = nullptr,
                         std::uint32_t start_node = kBvhRoot);

/**
 * Closest-hit traversal (primary / GI rays). Orders children near-first
 * and shrinks tMax as candidates are found.
 */
HitRecord traverseClosestHit(const Bvh &bvh,
                             const std::vector<Triangle> &triangles,
                             const Ray &ray,
                             TraversalStats *stats = nullptr,
                             std::uint32_t start_node = kBvhRoot);

/**
 * Collect every leaf node containing at least one primitive the ray
 * intersects (no early-out). Used by the limit-study oracles: a predicted
 * node verifies iff its subtree contains one of these leaves.
 */
std::vector<std::uint32_t> collectHitLeaves(
    const Bvh &bvh, const std::vector<Triangle> &triangles,
    const Ray &ray);

/**
 * Stackless any-hit traversal using a restart trail (Laine 2010),
 * the "bit trail for binary trees" alternative Section 2.4 mentions to
 * the per-thread traversal stack. Functionally equivalent to
 * traverseAnyHit; costs extra node fetches on each restart (visible in
 * @p stats), which is the classic stack-memory vs refetch trade-off.
 */
HitRecord traverseAnyHitRestartTrail(
    const Bvh &bvh, const std::vector<Triangle> &triangles,
    const Ray &ray, TraversalStats *stats = nullptr);

/** Brute-force any-hit over all triangles (test oracle). */
bool bruteForceAnyHit(const std::vector<Triangle> &triangles,
                      const Ray &ray);

/** Brute-force closest-hit over all triangles (test oracle). */
HitRecord bruteForceClosestHit(const std::vector<Triangle> &triangles,
                               const Ray &ray);

/**
 * Reusable traversal context for tracing many rays against one scene.
 *
 * traverseAnyHit / traverseClosestHit trace one ray on a fresh context.
 * The traversal stack is a member, so tracing N rays on one context
 * performs no per-ray heap allocation — the throughput win for
 * per-frame batch work (raygen's primary-hit loops trace one ray per
 * pixel).
 */
class BvhTraversal
{
  public:
    BvhTraversal(const Bvh &bvh, const std::vector<Triangle> &triangles);

    /** Closest-hit traversal; see traverseClosestHit. */
    HitRecord closestHit(const Ray &ray, TraversalStats *stats = nullptr,
                         std::uint32_t start_node = kBvhRoot);

    /** Any-hit traversal; see traverseAnyHit. */
    HitRecord anyHit(const Ray &ray, TraversalStats *stats = nullptr,
                     std::uint32_t start_node = kBvhRoot);

    /** Closest-hit for a whole batch; out is resized to rays.size(). */
    void closestHitBatch(const std::vector<Ray> &rays,
                         std::vector<HitRecord> &out,
                         TraversalStats *stats = nullptr);

    /** Any-hit flags for a whole batch; out is resized to rays.size(). */
    void anyHitBatch(const std::vector<Ray> &rays,
                     std::vector<std::uint8_t> &out,
                     TraversalStats *stats = nullptr);

  private:
    /** Leaf loop (closest-hit): updates best and shrinks r.tMax. */
    void leafClosest(Ray &r, const BvhNode &node, HitRecord &best,
                     TraversalStats *stats);

    /** Leaf loop (any-hit): first intersection wins. @return hit. */
    bool leafAny(const Ray &ray, const BvhNode &node, HitRecord &out,
                 TraversalStats *stats);

    /** A pushed node and the ray's entry distance into its box. */
    struct StackEntry
    {
        std::uint32_t node;
        float tEntry;
    };

    const Bvh &bvh_;
    const std::vector<Triangle> &triangles_;
    std::vector<StackEntry> stack_;
};

} // namespace rtp
