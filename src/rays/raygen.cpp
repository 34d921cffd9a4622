#include "rays/raygen.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "bvh/traversal.hpp"
#include "geometry/onb.hpp"
#include "util/rng.hpp"

namespace rtp {

namespace {

/** Shading normal at a hit: geometric normal flipped toward the viewer. */
Vec3
surfaceNormal(const std::vector<Triangle> &tris, const HitRecord &rec,
              const Vec3 &incoming_dir)
{
    Vec3 n = normalize(tris[rec.prim].geometricNormal());
    if (dot(n, incoming_dir) > 0.0f)
        n = -n;
    return n;
}

/** Shading normal from a primitive index (PathHit variant). */
Vec3
surfaceNormalOf(const std::vector<Triangle> &tris, std::uint32_t prim,
                const Vec3 &incoming_dir)
{
    Vec3 n = normalize(tris[prim].geometricNormal());
    if (dot(n, incoming_dir) > 0.0f)
        n = -n;
    return n;
}

/** Uniformly distributed unit direction (photon emission). */
Vec3
uniformSphereDir(Rng &rng)
{
    float z = 1.0f - 2.0f * rng.nextFloat();
    float phi = 6.28318530717958647692f * rng.nextFloat();
    float r = std::sqrt(std::max(0.0f, 1.0f - z * z));
    return Vec3{r * std::cos(phi), r * std::sin(phi), z};
}

/** The primary ray through pixel (x, y) of the viewport crop. */
Ray
pixelRay(const Scene &scene, const RayGenConfig &config, int x, int y)
{
    float aspect = static_cast<float>(config.width) / config.height;
    float sx = 0.5f + ((x + 0.5f) / config.width - 0.5f) *
                          config.viewportFraction;
    float sy = 0.5f + ((y + 0.5f) / config.height - 0.5f) *
                          config.viewportFraction;
    return scene.camera.generateRay(sx, sy, aspect);
}

/**
 * Cosine-weighted hemisphere direction in local space. The two draws
 * are separate statements so their order is defined: u2 first.
 */
Vec3
cosineSample(Rng &rng)
{
    float u2 = rng.nextFloat();
    float u1 = rng.nextFloat();
    return cosineSampleHemisphere(u1, u2);
}

/** Random draws per photon segment: one cosineSample or sphere dir. */
constexpr std::uint64_t kDrawsPerSegment = 2;

// The AO and photon generators split their traversals into this many
// chunks. As in BvhBuilder::build, the calling thread runs the first
// chunk and allocates every buffer before the workers start.
constexpr int kRaygenChunks = 4;

/** fn(c) for every chunk c >= first; this thread runs chunk first. */
template <typename Fn>
void
runChunks(int first, const Fn &fn)
{
    std::vector<std::jthread> workers;
    for (int c = first + 1; c < kRaygenChunks; ++c)
        workers.emplace_back(std::cref(fn), c);
    fn(first);
}

/**
 * One chunk's traversal context. Every push and pop writes its stack's
 * end pointer, so each context has its own cache line: packed side by
 * side, the chunks' contexts made 4 threads no faster than 1.
 */
struct alignas(64) ChunkTraversal
{
    BvhTraversal trav;
};

/** One traversal context (with its stack) per chunk. */
std::vector<ChunkTraversal>
chunkTraversals(const Bvh &bvh, const std::vector<Triangle> &tris)
{
    std::vector<ChunkTraversal> travs;
    travs.reserve(kRaygenChunks);
    for (int c = 0; c < kRaygenChunks; ++c)
        travs.push_back({BvhTraversal(bvh, tris)});
    return travs;
}

/** [begin, end) of chunk c when n items split into kRaygenChunks. */
std::pair<std::size_t, std::size_t>
chunkRange(std::size_t n, int c)
{
    return {n * c / kRaygenChunks, n * (c + 1) / kRaygenChunks};
}

/** The default light generateShadowRays and the photon pass share. */
Vec3
defaultLight(const Aabb &bounds)
{
    return Vec3{bounds.center().x,
                bounds.hi.y - 0.05f * bounds.extent().y,
                bounds.center().z};
}

} // namespace

RayBatch
generatePrimaryRays(const Scene &scene, const RayGenConfig &config)
{
    RayBatch batch;
    batch.rays.reserve(static_cast<std::size_t>(config.width) *
                       config.height);
    for (int y = 0; y < config.height; ++y)
        for (int x = 0; x < config.width; ++x)
            batch.rays.push_back(pixelRay(scene, config, x, y));
    batch.primaryRays = batch.rays.size();
    return batch;
}

RayBatch
generateAoRays(const Scene &scene, const Bvh &bvh,
               const RayGenConfig &config)
{
    const auto &tris = scene.mesh.triangles();
    const int width = std::max(config.width, 0);
    const int height = std::max(config.height, 0);

    // Phase 1: primary hits draw no random numbers, so row bands are
    // traced in parallel. Only the hit records are kept.
    std::vector<HitRecord> hits(static_cast<std::size_t>(width) * height);
    std::vector<ChunkTraversal> travs = chunkTraversals(bvh, tris);
    runChunks(0, [&](int c) {
        BvhTraversal &trav = travs[c].trav;
        const auto [y0, y1] = chunkRange(height, c);
        for (auto y = static_cast<int>(y0); y < static_cast<int>(y1); ++y)
            for (int x = 0; x < width; ++x)
                hits[static_cast<std::size_t>(y) * width + x] =
                    trav.closestHit(pixelRay(scene, config, x, y));
    });

    // Phase 2: the samples come from one stream in pixel order. Each
    // primary ray is regenerated rather than stored.
    RayBatch batch;
    batch.primaryRays = hits.size();
    batch.primaryHits = static_cast<std::uint64_t>(std::count_if(
        hits.begin(), hits.end(),
        [](const HitRecord &rec) { return rec.hit; }));
    batch.rays.reserve(batch.primaryHits *
                       std::max(config.samplesPerPixel, 0));
    Rng rng(config.seed, 17);
    float diag = bvh.sceneBounds().diagonal();
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            const HitRecord &rec =
                hits[static_cast<std::size_t>(y) * width + x];
            if (!rec.hit)
                continue;
            Ray primary = pixelRay(scene, config, x, y);
            Vec3 p = primary.at(rec.t);
            Vec3 n = surfaceNormal(tris, rec, primary.dir);
            Onb onb(n);
            for (int s = 0; s < config.samplesPerPixel; ++s) {
                Vec3 local = cosineSample(rng);
                Ray ao;
                ao.origin = p + n * (1e-3f * diag * 1e-2f);
                ao.dir = onb.toWorld(local);
                ao.tMin = 1e-4f;
                ao.tMax = diag * rng.nextRange(config.aoMinLengthFrac,
                                               config.aoMaxLengthFrac);
                ao.kind = RayKind::Occlusion;
                batch.rays.push_back(ao);
            }
        }
    }
    return batch;
}

RayBatch
generateGiRays(const Scene &scene, const Bvh &bvh,
               const RayGenConfig &config)
{
    RayBatch batch;
    Rng rng(config.seed, 29);
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris); // reused stack: no per-pixel allocation
    float diag = bvh.sceneBounds().diagonal();

    for (int y = 0; y < config.height; ++y) {
        for (int x = 0; x < config.width; ++x) {
            Ray ray = pixelRay(scene, config, x, y);
            batch.primaryRays++;
            HitRecord rec = trav.closestHit(ray);
            if (!rec.hit)
                continue;
            batch.primaryHits++;

            // Diffuse bounce chain: each bounce emits one closest-hit
            // secondary ray that continues from the previous hit point.
            for (int b = 0; b < config.giBounces; ++b) {
                Vec3 p = ray.at(rec.t);
                Vec3 n = surfaceNormal(tris, rec, ray.dir);
                Onb onb(n);
                Vec3 local = cosineSample(rng);
                Ray bounce;
                bounce.origin = p + n * (1e-5f * diag);
                bounce.dir = onb.toWorld(local);
                bounce.tMin = 1e-4f;
                bounce.tMax = 1e30f;
                bounce.kind = RayKind::Secondary;
                batch.rays.push_back(bounce);

                rec = trav.closestHit(bounce);
                if (!rec.hit)
                    break;
                ray = bounce;
            }
        }
    }
    return batch;
}

RayBatch
generateShadowRays(const Scene &scene, const Bvh &bvh,
                   const RayGenConfig &config, const Vec3 *light_pos)
{
    RayBatch batch;
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris); // reused stack: no per-pixel allocation
    float diag = bvh.sceneBounds().diagonal();

    Aabb bounds = bvh.sceneBounds();
    Vec3 light = light_pos ? *light_pos : defaultLight(bounds);

    for (int y = 0; y < config.height; ++y) {
        for (int x = 0; x < config.width; ++x) {
            Ray primary = pixelRay(scene, config, x, y);
            batch.primaryRays++;
            HitRecord rec = trav.closestHit(primary);
            if (!rec.hit)
                continue;
            batch.primaryHits++;

            Vec3 p = primary.at(rec.t);
            Vec3 n = surfaceNormal(tris, rec, primary.dir);
            Vec3 to_light = light - p;
            float dist = length(to_light);
            if (dist < 1e-6f * diag)
                continue;
            Ray shadow;
            shadow.origin = p + n * (1e-5f * diag);
            shadow.dir = to_light / dist;
            shadow.tMin = 1e-4f;
            shadow.tMax = dist * 0.999f; // stop just before the light
            shadow.kind = RayKind::Occlusion;
            batch.rays.push_back(shadow);
        }
    }
    return batch;
}

RayBatch
generatePhotonRays(const Scene &scene, const Bvh &bvh,
                   const RayGenConfig &config, const Vec3 *light_pos)
{
    const auto &tris = scene.mesh.triangles();
    float diag = bvh.sceneBounds().diagonal();
    Vec3 light =
        light_pos ? *light_pos : defaultLight(bvh.sceneBounds());
    const auto photons = static_cast<std::size_t>(std::max(
        config.photonCount > 0 ? config.photonCount
                               : config.width * config.height,
        0));
    const std::size_t full_depth =
        1 + static_cast<std::size_t>(std::max(config.photonBounces, 0));

    // Photon i's draws start where photon i-1's stopped, and each
    // segment takes kDrawsPerSegment draws, so a stream position is a
    // segment index. A chunk runs from a guessed position (it writes
    // its segments there too); its output is right iff the guess was.
    struct Chunk
    {
        std::size_t count = 0;  //!< photons in the chunk
        std::size_t start = 0;  //!< guessed segments before the chunk
        std::size_t rays = 0;   //!< segments the chunk emitted
        std::uint64_t hits = 0; //!< photons whose first segment hit
    };
    std::array<Chunk, kRaygenChunks> chunks;
    for (int c = 0; c < kRaygenChunks; ++c) {
        const auto [begin, end] = chunkRange(photons, c);
        chunks[c].count = end - begin;
    }
    RayBatch batch;
    batch.rays.resize(photons * full_depth);
    std::vector<ChunkTraversal> travs = chunkTraversals(bvh, tris);

    auto fly = [&](int c) {
        Chunk &chunk = chunks[c];
        BvhTraversal &trav = travs[c].trav;
        Rng rng(config.seed, 41);
        rng.advance(chunk.start * kDrawsPerSegment);
        Ray *out = batch.rays.data() + chunk.start;
        std::size_t rays = 0; // counted here, not in the shared chunks
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < chunk.count; ++i) {
            Ray ray;
            ray.origin = light;
            ray.dir = uniformSphereDir(rng);
            ray.tMin = 1e-4f;
            ray.tMax = 1e30f;
            ray.kind = RayKind::Secondary;
            out[rays++] = ray;

            // Diffuse photon flight: bounce off each surface the
            // photon lands on, up to photonBounces times (the reference
            // traversal here only steers generation; every segment
            // emitted is simulated by the consumer).
            HitRecord rec = trav.closestHit(ray);
            if (!rec.hit)
                continue;
            hits++;
            for (int b = 0; b < config.photonBounces; ++b) {
                Vec3 p = ray.at(rec.t);
                Vec3 n = surfaceNormal(tris, rec, ray.dir);
                Onb onb(n);
                Vec3 local = cosineSample(rng);
                Ray bounce;
                bounce.origin = p + n * (1e-5f * diag);
                bounce.dir = onb.toWorld(local);
                bounce.tMin = 1e-4f;
                bounce.tMax = 1e30f;
                bounce.kind = RayKind::Secondary;
                out[rays++] = bounce;

                rec = trav.closestHit(bounce);
                if (!rec.hit)
                    break;
                ray = bounce;
            }
        }
        chunk.rays = rays;
        chunk.hits = hits;
    };

    // Each round guesses that every photon before a pending chunk
    // flies to full depth, counting from the true position `done`,
    // and runs the pending chunks in parallel. Stitching accepts
    // chunks in order while their guess was right; the first wrong
    // guess starts the next round. A round's first chunk is always
    // right, so the rounds end, and the worst case is the serial cost.
    std::size_t done = 0;
    for (int next = 0; next < kRaygenChunks;) {
        std::size_t guess = done;
        for (int c = next; c < kRaygenChunks; ++c) {
            chunks[c].start = guess;
            guess += chunks[c].count * full_depth;
        }
        runChunks(next, fly);
        for (; next < kRaygenChunks && chunks[next].start == done; ++next) {
            done += chunks[next].rays;
            batch.primaryHits += chunks[next].hits;
        }
    }
    batch.rays.resize(done);
    batch.primaryRays = photons;
    return batch;
}

RayBatch
generatePathBounceRays(const Scene &scene, const Bvh &bvh,
                       const std::vector<Ray> &prev,
                       const std::vector<PathHit> &hits, Rng &rng)
{
    RayBatch batch;
    const auto &tris = scene.mesh.triangles();
    float diag = bvh.sceneBounds().diagonal();
    for (std::size_t i = 0; i < prev.size() && i < hits.size(); ++i) {
        if (!hits[i].hit || hits[i].prim >= tris.size())
            continue;
        const Ray &ray = prev[i];
        Vec3 p = ray.at(hits[i].t);
        Vec3 n = surfaceNormalOf(tris, hits[i].prim, ray.dir);
        Onb onb(n);
        Vec3 local = cosineSample(rng);
        Ray bounce;
        bounce.origin = p + n * (1e-5f * diag);
        bounce.dir = onb.toWorld(local);
        bounce.tMin = 1e-4f;
        bounce.tMax = 1e30f;
        bounce.kind = RayKind::Secondary;
        batch.rays.push_back(bounce);
    }
    batch.primaryRays = prev.size();
    batch.primaryHits = batch.rays.size();
    return batch;
}

RayBatch
generateReflectionRays(const Scene &scene, const Bvh &bvh,
                       const RayGenConfig &config)
{
    RayBatch batch;
    const auto &tris = scene.mesh.triangles();
    BvhTraversal trav(bvh, tris); // reused stack: no per-pixel allocation
    float diag = bvh.sceneBounds().diagonal();

    for (int y = 0; y < config.height; ++y) {
        for (int x = 0; x < config.width; ++x) {
            Ray primary = pixelRay(scene, config, x, y);
            batch.primaryRays++;
            HitRecord rec = trav.closestHit(primary);
            if (!rec.hit)
                continue;
            batch.primaryHits++;

            Vec3 n = surfaceNormal(tris, rec, primary.dir);
            Vec3 d = normalize(primary.dir);
            Ray refl;
            refl.origin = primary.at(rec.t) + n * (1e-5f * diag);
            refl.dir = d - n * (2.0f * dot(d, n));
            refl.tMin = 1e-4f;
            refl.tMax = 1e30f;
            refl.kind = RayKind::Secondary;
            batch.rays.push_back(refl);
        }
    }
    return batch;
}

} // namespace rtp
