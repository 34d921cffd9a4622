#include "bvh/builder.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <new>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

namespace rtp {

namespace {

/** Largest BvhBuildConfig::sahBins; sizes the per-node bin arrays. */
constexpr int kMaxSahBins = 64;

/** Nodes at this depth become leaves whatever their primitive count. */
constexpr std::uint32_t kMaxBuildDepth = 60;

/**
 * Nodes above this depth are built on the calling thread; each subtree
 * rooted at it (at most 2^kFanoutDepth = 4) is one job. Every job writes
 * its own node array, so the spliced tree does not depend on which
 * thread ran which job.
 */
constexpr std::uint32_t kFanoutDepth = 2;

/** Per-primitive precomputed data used during the build. */
struct PrimInfo
{
    Aabb bounds;
    Vec3 centroid;
};

/**
 * Allocator that maps whole pages from the OS and unmaps them on free.
 * Job node arrays use it so their pages leave the process as soon as they
 * are spliced; from malloc they would stay in the heap and raise the
 * simulator's peak RSS.
 */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U> PageAllocator(const PageAllocator<U> &) {}

    T *
    allocate(std::size_t n)
    {
        void *p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n)
    {
        munmap(p, n * sizeof(T));
    }

    friend bool
    operator==(const PageAllocator &, const PageAllocator &)
    {
        return true;
    }
};

using NodeArray = std::vector<BvhNode, PageAllocator<BvhNode>>;

struct BuildContext
{
    const std::vector<PrimInfo> &prims;
    std::vector<std::uint32_t> &primIndices;
    const BvhBuildConfig &config;
};

/** SAH bin accumulator. */
struct Bin
{
    Aabb bounds;
    std::uint32_t count = 0;
};

/**
 * Fill @p node's box and depth from primIndices[first, first+count) and
 * decide its fate. A leaf gets its primitive range and the call returns
 * false. Otherwise the range is partitioned in place around the split,
 * @p mid is set to the first slot of the right child and the call
 * returns true.
 */
bool
splitNode(const BuildContext &ctx, std::uint32_t first, std::uint32_t count,
          std::uint32_t depth, BvhNode &node, std::uint32_t &mid)
{
    Aabb bounds, centroid_bounds;
    for (std::uint32_t i = 0; i < count; ++i) {
        const PrimInfo &p = ctx.prims[ctx.primIndices[first + i]];
        bounds.extend(p.bounds);
        centroid_bounds.extend(p.centroid);
    }
    node.box = bounds;
    node.depth = depth;

    auto make_leaf = [&]() {
        node.left = node.right = -1;
        node.firstPrim = first;
        node.primCount = count;
        return false;
    };

    if (count <= static_cast<std::uint32_t>(ctx.config.maxLeafSize) ||
        depth >= kMaxBuildDepth)
        return make_leaf();

    int axis = centroid_bounds.longestAxis();
    float axis_lo = centroid_bounds.lo[axis];
    float axis_extent = centroid_bounds.extent()[axis];
    auto begin = ctx.primIndices.begin() + first;
    auto end = begin + count;
    mid = first + count / 2;

    if (axis_extent < 1e-12f) {
        // All centroids coincide on the split axis: median split by
        // index to guarantee progress.
        std::nth_element(begin, begin + count / 2, end);
        return true;
    }

    // Binned SAH on the longest centroid axis.
    const int n_bins = ctx.config.sahBins;
    Bin bins[kMaxSahBins];
    float inv_extent = n_bins / axis_extent;
    auto bin_of = [&](std::uint32_t prim) {
        float c = ctx.prims[prim].centroid[axis];
        int b = static_cast<int>((c - axis_lo) * inv_extent);
        return std::clamp(b, 0, n_bins - 1);
    };
    for (auto it = begin; it != end; ++it) {
        Bin &b = bins[bin_of(*it)];
        b.bounds.extend(ctx.prims[*it].bounds);
        b.count++;
    }

    // Sweep to find the cheapest split plane between bins.
    float right_area[kMaxSahBins] = {};
    std::uint32_t right_count[kMaxSahBins] = {};
    Aabb acc;
    std::uint32_t cnt = 0;
    for (int b = n_bins - 1; b > 0; --b) {
        acc.extend(bins[b].bounds);
        cnt += bins[b].count;
        right_area[b] = acc.surfaceArea();
        right_count[b] = cnt;
    }
    float best_cost = std::numeric_limits<float>::max();
    int best_split = -1;
    acc = Aabb{};
    cnt = 0;
    float parent_area = bounds.surfaceArea();
    for (int b = 0; b < n_bins - 1; ++b) {
        acc.extend(bins[b].bounds);
        cnt += bins[b].count;
        if (cnt == 0 || right_count[b + 1] == 0)
            continue;
        float cost = ctx.config.traversalCost +
                     ctx.config.intersectCost *
                         (acc.surfaceArea() * cnt +
                          right_area[b + 1] * right_count[b + 1]) /
                         std::max(parent_area, 1e-20f);
        if (cost < best_cost) {
            best_cost = cost;
            best_split = b;
        }
    }

    float leaf_cost = ctx.config.intersectCost * count;
    if (best_split < 0 ||
        (best_cost >= leaf_cost &&
         count <= 4 * static_cast<std::uint32_t>(ctx.config.maxLeafSize)))
        return make_leaf();

    auto pivot = std::partition(begin, end, [&](std::uint32_t prim) {
        return bin_of(prim) <= best_split;
    });
    if (pivot == begin || pivot == end) {
        // Degenerate partition; fall back to a median split.
        std::nth_element(begin, begin + count / 2, end,
                         [&](std::uint32_t a, std::uint32_t b) {
                             return ctx.prims[a].centroid[axis] <
                                    ctx.prims[b].centroid[axis];
                         });
    } else {
        mid = static_cast<std::uint32_t>(pivot - ctx.primIndices.begin());
    }
    return true;
}

/** A subtree built apart from the rest of the tree. */
struct Job
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    NodeArray nodes; //!< the subtree in preorder, child indices local
};

/**
 * Append the subtree over primIndices[first, first+count) to @p out in
 * preorder and return its root's index in @p out. With @p jobs set, a
 * subtree rooted at kFanoutDepth is not built: it is appended as a
 * placeholder node and recorded as a job, in preorder.
 */
std::uint32_t
buildSubtree(const BuildContext &ctx, NodeArray &out, std::uint32_t first,
             std::uint32_t count, std::uint32_t depth,
             std::vector<Job> *jobs)
{
    const auto idx = static_cast<std::uint32_t>(out.size());
    out.emplace_back();
    if (jobs && depth == kFanoutDepth) {
        out[idx].depth = depth;
        jobs->push_back({first, count, {}});
        return idx;
    }
    std::uint32_t mid = 0;
    if (!splitNode(ctx, first, count, depth, out[idx], mid))
        return idx;
    std::uint32_t left =
        buildSubtree(ctx, out, first, mid - first, depth + 1, jobs);
    std::uint32_t right =
        buildSubtree(ctx, out, mid, first + count - mid, depth + 1, jobs);
    out[idx].left = static_cast<std::int32_t>(left);
    out[idx].right = static_cast<std::int32_t>(right);
    return idx;
}

void
runJob(const BuildContext &ctx, Job &job)
{
    buildSubtree(ctx, job.nodes, job.first, job.count, kFanoutDepth,
                 nullptr);
}

} // namespace

BvhBuilder::BvhBuilder(BvhBuildConfig config) : config_(config)
{
    if (config_.sahBins < 2 || config_.sahBins > kMaxSahBins)
        throw std::invalid_argument(
            "BvhBuilder: sahBins must be in [2, " +
            std::to_string(kMaxSahBins) + "], got " +
            std::to_string(config_.sahBins));
    if (config_.maxLeafSize < 1)
        throw std::invalid_argument(
            "BvhBuilder: maxLeafSize must be at least 1, got " +
            std::to_string(config_.maxLeafSize));
}

Bvh
BvhBuilder::build(const std::vector<Triangle> &triangles) const
{
    if (triangles.empty())
        throw std::invalid_argument("BvhBuilder: empty triangle array");
    const auto n = static_cast<std::uint32_t>(triangles.size());

    std::vector<PrimInfo> prims(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        prims[i].bounds = triangles[i].bounds();
        prims[i].centroid = triangles[i].centroid();
    }

    Bvh bvh;
    bvh.primIndices_.resize(n);
    std::iota(bvh.primIndices_.begin(), bvh.primIndices_.end(), 0u);
    const BuildContext ctx{prims, bvh.primIndices_, config_};

    // Top of the tree on this thread, then its subtrees as jobs over
    // disjoint primIndices ranges. A subtree over c primitives has at
    // most 2c - 1 nodes, so no job reallocates. Buffers are allocated
    // here, so the workers do not allocate.
    NodeArray top;
    std::vector<Job> jobs;
    buildSubtree(ctx, top, 0, n, 0, &jobs);
    for (Job &job : jobs)
        job.nodes.reserve(2 * std::size_t{job.count} - 1);
    if (!jobs.empty()) {
        std::vector<std::jthread> workers;
        for (std::size_t j = 1; j < jobs.size(); ++j)
            workers.emplace_back(runJob, std::cref(ctx), std::ref(jobs[j]));
        runJob(ctx, jobs[0]);
    }

    // Splice in preorder: each placeholder is replaced by its job's
    // nodes, whose child indices shift by where the job lands.
    std::size_t total = top.size() - jobs.size();
    for (const Job &job : jobs)
        total += job.nodes.size();
    std::vector<BvhNode> &out = bvh.nodes_;
    out.reserve(total);
    std::vector<std::uint32_t> placed(top.size());
    auto next_job = jobs.begin();
    for (std::size_t i = 0; i < top.size(); ++i) {
        const auto base = static_cast<std::int32_t>(out.size());
        placed[i] = static_cast<std::uint32_t>(base);
        if (top[i].depth < kFanoutDepth) {
            out.push_back(top[i]);
            continue;
        }
        const NodeArray spliced = std::move(next_job++->nodes);
        for (BvhNode node : spliced) {
            if (!node.isLeaf()) {
                node.left += base;
                node.right += base;
            }
            out.push_back(node);
        }
    }
    for (std::size_t i = 0; i < top.size(); ++i) {
        if (top[i].depth < kFanoutDepth && !top[i].isLeaf()) {
            out[placed[i]].left =
                static_cast<std::int32_t>(placed[top[i].left]);
            out[placed[i]].right =
                static_cast<std::int32_t>(placed[top[i].right]);
        }
    }

    // Post-pass: parent links, max depth, Euler intervals, slot->leaf
    // map. Nodes are in preorder, so a node's Euler entry is its index
    // and an interior node's subtree ends where its right child's does.
    const auto node_count = static_cast<std::uint32_t>(out.size());
    bvh.slotToLeaf_.resize(n);
    for (std::uint32_t i = 0; i < node_count; ++i) {
        BvhNode &node = out[i];
        node.eulerIn = i;
        bvh.maxDepth_ = std::max(bvh.maxDepth_, node.depth);
        if (node.isLeaf()) {
            std::fill_n(bvh.slotToLeaf_.begin() + node.firstPrim,
                        node.primCount, i);
        } else {
            out[node.left].parent = static_cast<std::int32_t>(i);
            out[node.right].parent = static_cast<std::int32_t>(i);
        }
    }
    for (std::uint32_t i = node_count; i-- > 0;) {
        BvhNode &node = out[i];
        node.eulerOut = node.isLeaf() ? i + 1 : out[node.right].eulerOut;
    }

    return bvh;
}

} // namespace rtp
