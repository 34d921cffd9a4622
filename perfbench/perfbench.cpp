/**
 * @file
 * Repository benchmark: modelled RT-unit cycles and host simulator
 * throughput over four workloads (ao, photon, pathtrace, ao_8sm).
 *
 * Every input is built here by calling the public layer functions
 * directly (makeScene, BvhBuilder::build, generate*Rays,
 * Simulation::run, runPathTrace); nothing goes through the env-driven
 * experiment harness. One pass simulates the baseline and proposed
 * configurations over all seven scenes, with cold caches at every
 * Simulation::run. Passes repeat until --seconds of simulation have
 * been timed; each cell's host time is its fastest pass.
 *
 * --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
 * metrics: it adds spans around each layer call (kept in memory,
 * written at exit), one pass with a CycleProfiler per configuration,
 * and one pass of the other event loop (sequential vs sharded).
 *
 * Human-readable lines go to stdout first; the last stdout line is one
 * JSON object {correct, attempted, failed, metrics}. The exit code is
 * 0 only when every ray agrees with its oracle and every determinism
 * and zero-perturbation check holds. See README.md in this directory.
 */

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bvh/builder.hpp"
#include "core/reference.hpp"
#include "exp/path_driver.hpp"
#include "exp/workload.hpp"
#include "gpu/simulator.hpp"
#include "rays/raygen.hpp"
#include "scene/registry.hpp"
#include "util/profile.hpp"

using namespace rtp;

namespace {

using Clock = std::chrono::steady_clock;

// Scene detail and viewport of the repository's RTP_SCALE = 1 density
// (WorkloadConfig::fromEnvironment): a pass of the slowest workload,
// pathtrace, takes about 6 s on a 4-vCPU VM, so a 20 s run still times
// several passes of every workload.
constexpr float kDetail = 0.12f;
constexpr int kViewport = 96;
// Set-up repeats per run; setup_s is their median.
constexpr int kSetupReps = 5;

// Table 5 and Figure 12 of the paper, printed beside the ao figures.
constexpr double kPaperSpeedupFig12 = 1.26; // unsorted AO geomean
constexpr double kPaperVerifiedRate = 0.246;
constexpr double kPaperPredictedRate = 0.955;

[[noreturn]] void
fail(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

// ---------------------------------------------------------------------
// Command line and environment.

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spansDir = "."; //!< where --trace 1 writes its spans
};

std::uint64_t
parseUnsigned(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0' || errno != 0)
        fail(flag + " needs a non-negative integer, got \"" + text +
             "\"");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    std::set<std::string> seen;
    for (int i = 1; i < argc; i += 2) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            fail("missing value for " + flag);
        if (!seen.insert(flag).second)
            fail("repeated " + flag);
        const char *v = argv[i + 1];
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = parseUnsigned(flag, v);
        } else if (flag == "--seconds") {
            std::uint64_t s = parseUnsigned(flag, v);
            if (s == 0 || s > 600)
                fail("--seconds must be in [1, 600]");
            o.seconds = static_cast<double>(s);
        } else if (flag == "--trace") {
            std::uint64_t t = parseUnsigned(flag, v);
            if (t > 1)
                fail("--trace must be 0 or 1");
            o.trace = t == 1;
        } else if (flag == "--spans-dir") {
            o.spansDir = v;
        } else {
            fail("unknown argument " + flag);
        }
    }
    for (const char *required : {"--workload", "--seed", "--seconds"})
        if (!seen.count(required))
            fail(std::string("missing ") + required);
    return o;
}

/**
 * The experiment harness applies these to every run it builds; this
 * benchmark builds its SimConfigs itself and reads none of them, so a
 * set value would only mislead whoever reads the figures.
 */
void
refuseSimulationEnv()
{
    static const char *const kRefused[] = {
        "RTP_SCALE",   "RTP_BACKEND",        "RTP_KERNEL",
        "RTP_THREADS", "RTP_SIM_THREADS",    "RTP_PHOTONS",
        "RTP_SERVICE", "RTP_PHOTON_BOUNCES", "RTP_PT_BOUNCES",
        "RTP_CHECK",   "RTP_TRACE",          "RTP_TELEMETRY",
        "RTP_PROFILE",
    };
    for (const char *name : kRefused)
        if (std::getenv(name) != nullptr)
            fail(std::string(name) +
                 " is set; unset it (the benchmark fixes every "
                 "simulation and threading setting itself)");
}

// ---------------------------------------------------------------------
// Workloads.

enum class Kind
{
    Ao,        //!< generateAoRays, occlusion rays
    Photon,    //!< generatePhotonRays, closest-hit rays
    PathTrace, //!< runPathTrace, per-bounce waves
};

struct WorkloadSpec
{
    const char *name;
    Kind kind;
    std::uint32_t numSms;
    std::uint32_t simThreads; //!< 1 = sequential event loop
};

constexpr WorkloadSpec kWorkloads[] = {
    {"ao", Kind::Ao, 2, 1},
    {"photon", Kind::Photon, 2, 1},
    {"pathtrace", Kind::PathTrace, 2, 1},
    {"ao_8sm", Kind::Ao, 8, 4},
};

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (name == w.name)
            return w;
    fail("unknown workload \"" + name +
         "\" (ao, photon, pathtrace, ao_8sm)");
}

RayGenConfig
raygenConfig(std::uint64_t seed)
{
    RayGenConfig rg;
    rg.width = kViewport;
    rg.height = kViewport;
    rg.samplesPerPixel = 4;
    rg.viewportFraction = static_cast<float>(kViewport) / 1024.0f;
    rg.photonCount = 0; // one photon per viewport pixel
    rg.photonBounces = 2;
    rg.pathBounces = 4;
    rg.seed = seed;
    return rg;
}

SimConfig
simConfig(bool proposed, const WorkloadSpec &spec, std::uint32_t threads,
          CycleProfiler *profile)
{
    SimConfig c = proposed ? SimConfig::proposed() : SimConfig::baseline();
    c.numSms = spec.numSms;
    c.simThreads = threads;
    c.profile = profile;
    return c;
}

// ---------------------------------------------------------------------
// Host-side spans: name, label, start, end, parent; in memory until
// exit. A null SpanLog means tracing is off.

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string label;
        std::int64_t startNs;
        std::int64_t endNs;
        int parent; //!< index into spans(), -1 for a root
    };

    int
    open(const std::string &name, const std::string &label,
         Clock::time_point start)
    {
        int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, label, ns(start), -1, parent});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id, Clock::time_point end)
    {
        spans_[id].endNs = ns(end);
        stack_.pop_back();
    }

    const std::vector<Span> &
    spans() const
    {
        return spans_;
    }

  private:
    std::int64_t
    ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Opens a span (when @p log is set) and times the enclosed scope. */
class Timed
{
  public:
    Timed(SpanLog *log, const std::string &name, const std::string &label)
        : log_(log), start_(Clock::now())
    {
        if (log_)
            id_ = log_->open(name, label, start_);
    }

    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

    /** Close the span; @return its duration in seconds. */
    double
    stop()
    {
        Clock::time_point end = Clock::now();
        if (log_)
            log_->close(id_, end);
        log_ = nullptr;
        return std::chrono::duration<double>(end - start_).count();
    }

    ~Timed()
    {
        if (log_)
            stop();
    }

  private:
    SpanLog *log_;
    Clock::time_point start_;
    int id_ = -1;
};

// ---------------------------------------------------------------------
// Set-up: scenes, BVHs, rays.

struct SceneInput
{
    Workload w;            //!< scene + BVH (ao/aoSorted unused)
    std::vector<Ray> rays; //!< the batch; pathtrace: the camera wave
};

struct SetupTimes
{
    double total = 0.0;
    double make = 0.0;
    double build = 0.0;
    double gen = 0.0;
    std::uint64_t triangles = 0;
    std::uint64_t rays = 0;
};

std::vector<SceneInput>
buildInputs(const WorkloadSpec &spec, const RayGenConfig &rg,
            SpanLog *log, SetupTimes &t)
{
    Timed all(log, "setup", spec.name);
    std::vector<SceneInput> inputs;
    for (SceneId id : allSceneIds()) {
        const std::string label = sceneShortName(id);
        SceneInput in;
        {
            Timed s(log, "scene.make", label);
            in.w.scene = makeScene(id, kDetail);
            t.make += s.stop();
        }
        const std::vector<Triangle> &tris = in.w.scene.mesh.triangles();
        {
            Timed s(log, "bvh.build", label);
            in.w.bvh = BvhBuilder().build(tris);
            t.build += s.stop();
        }
        t.triangles += tris.size();
        {
            Timed s(log, "rays.gen", label);
            switch (spec.kind) {
            case Kind::Ao:
                in.rays = generateAoRays(in.w.scene, in.w.bvh, rg).rays;
                break;
            case Kind::Photon:
                in.rays =
                    generatePhotonRays(in.w.scene, in.w.bvh, rg).rays;
                break;
            case Kind::PathTrace:
                // runPathTrace regenerates this wave itself; it is built
                // here to time ray generation and count camera rays.
                in.rays = generatePrimaryRays(in.w.scene, rg).rays;
                break;
            }
            t.gen += s.stop();
        }
        if (in.rays.empty())
            fail("scene " + label + " produced no rays");
        t.rays += in.rays.size();
        inputs.push_back(std::move(in));
    }
    t.total = all.stop();
    return inputs;
}

// ---------------------------------------------------------------------
// Simulation passes.

struct Pass
{
    // [scene][0 = baseline, 1 = proposed]
    std::vector<std::array<SimResult, 2>> results;
    std::uint64_t rays = 0; //!< rays simulated, both configurations
    // Host seconds per cell (index 2 * scene + config): wall inside the
    // simulation call, and user + sys CPU of the process over it.
    std::vector<double> cellWall, cellCpu;
    double wall = 0.0; //!< sum of cellWall
    double cpu = 0.0;  //!< sum of cellCpu
};

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Pass
runPass(const WorkloadSpec &spec, const std::vector<SceneInput> &inputs,
        const RayGenConfig &rg, std::uint32_t threads,
        CycleProfiler *const profilers[2], SpanLog *log)
{
    static const char *const kConfigName[2] = {"baseline", "proposed"};
    Pass p;
    p.results.resize(inputs.size());
    Timed pass(log, "gpu.pass", spec.name);
    for (std::size_t s = 0; s < inputs.size(); ++s) {
        const SceneInput &in = inputs[s];
        for (int c = 0; c < 2; ++c) {
            SimConfig cfg = simConfig(c == 1, spec, threads,
                                      profilers ? profilers[c] : nullptr);
            const double cpu0 = cpuSeconds();
            Timed run(log, "gpu.run",
                      in.w.scene.shortName + "/" + kConfigName[c]);
            if (spec.kind == Kind::PathTrace) {
                PathTraceOutcome o = runPathTrace(in.w, cfg, rg);
                p.rays += o.totalRays;
                p.results[s][c] = std::move(o.total);
            } else {
                Simulation sim(cfg, in.w.bvh, in.w.scene.mesh.triangles());
                p.results[s][c] = sim.run(in.rays);
                p.rays += in.rays.size();
            }
            p.cellWall.push_back(run.stop());
            p.cellCpu.push_back(cpuSeconds() - cpu0);
            p.wall += p.cellWall.back();
            p.cpu += p.cellCpu.back();
        }
    }
    pass.stop();
    return p;
}

bool
sameRay(const RayResult &a, const RayResult &b)
{
    return a.hit == b.hit &&
           std::memcmp(&a.t, &b.t, sizeof(float)) == 0 &&
           a.prim == b.prim && a.predicted == b.predicted &&
           a.verified == b.verified && a.mispredicted == b.mispredicted;
}

/** @return Cells (scene x config) whose outcome differs between passes. */
std::uint64_t
differingCells(const Pass &a, const Pass &b)
{
    std::uint64_t n = 0;
    for (std::size_t s = 0; s < a.results.size(); ++s)
        for (int c = 0; c < 2; ++c) {
            const SimResult &x = a.results[s][c];
            const SimResult &y = b.results[s][c];
            bool same = x.toJson() == y.toJson() &&
                        x.rayResults.size() == y.rayResults.size() &&
                        std::equal(x.rayResults.begin(),
                                   x.rayResults.end(),
                                   y.rayResults.begin(), sameRay);
            n += same ? 0 : 1;
        }
    return n;
}

/** FNV-1a over every cell's JSON and per-ray results. */
std::uint64_t
digest(const Pass &p)
{
    std::uint64_t h = 1469598103934665603ull;
    auto feed = [&h](const void *data, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 1099511628211ull;
    };
    for (const auto &cells : p.results)
        for (const SimResult &r : cells) {
            std::string j = r.toJson();
            feed(j.data(), j.size());
            for (const RayResult &rr : r.rayResults) {
                const unsigned char flags = static_cast<unsigned char>(
                    rr.hit | rr.predicted << 1 | rr.verified << 2 |
                    rr.mispredicted << 3);
                feed(&flags, 1);
                feed(&rr.t, sizeof rr.t);
                feed(&rr.prim, sizeof rr.prim);
            }
        }
    return h;
}

// ---------------------------------------------------------------------
// Correctness against the reference traversal.

struct RayCheck
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

bool
sameT(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

/**
 * ao/ao_8sm: each ray's hit flag against referenceTrace. photon: hit
 * and bitwise t. pathtrace: proposed against baseline per ray (its
 * waves come from simulated hits, so only the simulator sees them).
 */
RayCheck
checkRays(const WorkloadSpec &spec, const std::vector<SceneInput> &inputs,
          const Pass &p)
{
    RayCheck rc;
    for (std::size_t s = 0; s < inputs.size(); ++s) {
        const SceneInput &in = inputs[s];
        const SimResult &base = p.results[s][0];
        const SimResult &prop = p.results[s][1];
        if (spec.kind == Kind::PathTrace) {
            const auto &a = base.rayResults;
            const auto &b = prop.rayResults;
            std::size_t n = std::min(a.size(), b.size());
            rc.attempted += std::max(a.size(), b.size());
            rc.failed += std::max(a.size(), b.size()) - n;
            for (std::size_t i = 0; i < n; ++i)
                if (a[i].hit != b[i].hit ||
                    (a[i].hit && !sameT(a[i].t, b[i].t)))
                    ++rc.failed;
            continue;
        }
        const auto &tris = in.w.scene.mesh.triangles();
        rc.attempted += 2 * in.rays.size();
        if (base.rayResults.size() != in.rays.size() ||
            prop.rayResults.size() != in.rays.size()) {
            rc.failed += 2 * in.rays.size();
            continue;
        }
        for (std::size_t i = 0; i < in.rays.size(); ++i) {
            HitRecord ref = referenceTrace(in.w.bvh, tris, in.rays[i]);
            for (const SimResult *r : {&base, &prop}) {
                const RayResult &got = r->rayResults[i];
                bool ok = got.hit == ref.hit;
                if (spec.kind == Kind::Photon && ok && ref.hit)
                    ok = sameT(got.t, ref.t);
                rc.failed += ok ? 0 : 1;
            }
        }
    }
    return rc;
}

// ---------------------------------------------------------------------
// Metrics.

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

struct Totals
{
    std::uint64_t rays = 0;
    std::uint64_t cycles = 0;
    StatGroup stats;
    StatGroup mem;
    double simtWeighted = 0.0; //!< simtEfficiency x cycles
};

/** Sum one configuration's cells over the scenes of a pass. */
Totals
totals(const Pass &p, int config)
{
    Totals t;
    for (const auto &cells : p.results) {
        const SimResult &r = cells[config];
        t.rays += r.stats.get("rays_completed");
        t.cycles += r.cycles;
        t.stats.merge(r.stats);
        t.mem.merge(r.memStats);
        t.simtWeighted += r.simtEfficiency * static_cast<double>(r.cycles);
    }
    return t;
}

std::vector<Metric>
modelMetrics(const Pass &p)
{
    std::vector<double> speedups;
    for (const auto &cells : p.results)
        speedups.push_back(ratio(static_cast<double>(cells[0].cycles),
                                 static_cast<double>(cells[1].cycles)));
    Totals prop = totals(p, 1);
    std::uint64_t accesses = 0;
    for (const auto &cells : p.results)
        accesses += cells[1].totalMemAccesses();
    const double rays = static_cast<double>(prop.rays);
    return {
        {"model_speedup", geomean(speedups), "x"},
        {"model_speedup_min",
         *std::min_element(speedups.begin(), speedups.end()), "x"},
        {"model_cycles_per_kray",
         1000.0 * static_cast<double>(prop.cycles) / rays, "cycles/kray"},
        {"model_mem_accesses_per_ray",
         static_cast<double>(accesses) / rays, "accesses/ray"},
    };
}

/**
 * Mean fill of the warps the repacker emits (full, timeout and drain
 * flushes alike), from the profiler's collector tallies.
 */
double
repackWarpFill(const CycleProfiler &prof, std::uint32_t warpSize)
{
    std::uint64_t warps = 0, rays = 0;
    for (std::uint32_t sm = 0; sm < prof.numSms(); ++sm) {
        warps += prof.slice(sm).repackFlushes;
        rays += prof.slice(sm).repackRays;
    }
    return ratio(static_cast<double>(rays),
                 static_cast<double>(warps) * warpSize);
}

/** Cycle-category shares of one profiler: cycles.<config>.<cat>_share. */
void
addCycleShares(std::vector<Metric> &out, const char *config,
               const CycleProfiler &prof)
{
    std::uint64_t all = 0;
    for (std::size_t c = 0; c < kCycleCatCount; ++c)
        all += prof.totalFor(static_cast<CycleCat>(c));
    for (std::size_t c = 0; c < kCycleCatCount; ++c) {
        auto cat = static_cast<CycleCat>(c);
        out.push_back({std::string("cycles.") + config + "." +
                           cycleCatName(cat) + "_share",
                       ratio(static_cast<double>(prof.totalFor(cat)),
                             static_cast<double>(all)),
                       "share"});
    }
}

std::vector<Metric>
layerCounters(const Pass &p)
{
    Totals prop = totals(p, 1);
    const StatGroup &st = prop.stats;
    const StatGroup &mem = prop.mem;
    auto g = [](const StatGroup &grp, const char *name) {
        return static_cast<double>(grp.get(name));
    };
    const double rays = static_cast<double>(prop.rays);
    std::uint64_t accesses = 0, postMerge = 0;
    for (const auto &cells : p.results) {
        accesses += cells[1].totalMemAccesses();
        postMerge += cells[1].postMergeAccesses();
    }
    return {
        {"predictor.verified_per_predicted",
         ratio(g(st, "rays_verified"), g(st, "rays_predicted")), "ratio"},
        {"predictor.wasted_fetch_share",
         ratio(g(st, "wasted_pred_fetches"),
               static_cast<double>(accesses)),
         "share"},
        // RayPredictor counts a prediction per table hit, so this is
        // the table hit rate (backend counters are not in SimResult).
        {"predictor.lookup_hit_rate",
         ratio(g(st, "predicted"), g(st, "lookups")), "ratio"},
        {"predictor.predicted_rate", ratio(g(st, "rays_predicted"), rays),
         "ratio"},
        {"predictor.verified_rate", ratio(g(st, "rays_verified"), rays),
         "ratio"},
        {"predictor.trains_per_kray",
         1000.0 * ratio(g(st, "trained"), rays), "count/kray"},
        {"rtunit.simt_efficiency",
         ratio(prop.simtWeighted, static_cast<double>(prop.cycles)),
         "ratio"},
        {"rtunit.box_tests_per_ray", ratio(g(st, "box_tests"), rays),
         "count/ray"},
        {"rtunit.tri_tests_per_ray", ratio(g(st, "tri_tests"), rays),
         "count/ray"},
        {"rtunit.stack_spills_per_kray",
         1000.0 * ratio(g(st, "stack_spills"), rays), "count/kray"},
        {"mem.l1_hit_rate",
         ratio(g(mem, "l1.hits"), g(mem, "l1.hits") + g(mem, "l1.misses")),
         "ratio"},
        {"mem.l2_hit_rate",
         ratio(g(mem, "l2.hits"), g(mem, "l2.hits") + g(mem, "l2.misses")),
         "ratio"},
        {"mem.dram_row_hit_rate",
         ratio(g(mem, "dram.row_hits"),
               g(mem, "dram.row_hits") + g(mem, "dram.row_misses")),
         "ratio"},
        {"mem.mshr_merges_per_ray",
         ratio(g(mem, "l1.mshr_merges") + g(mem, "l2.mshr_merges"), rays),
         "count/ray"},
        {"mem.post_merge_accesses_per_ray",
         ratio(static_cast<double>(postMerge), rays), "count/ray"},
    };
}

/** Box plus triangle tests of both configurations in a pass. */
double
nodeTests(const Pass &p)
{
    double n = 0.0;
    for (int c = 0; c < 2; ++c) {
        Totals t = totals(p, c);
        n += static_cast<double>(t.stats.get("box_tests") +
                                 t.stats.get("tri_tests"));
    }
    return n;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printMetrics(const char *heading, const std::vector<Metric> &ms)
{
    std::printf("%s\n", heading);
    for (const Metric &m : ms)
        std::printf("  %-40s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

void
writeSpans(const std::string &path, const Options &o, const SpanLog &log)
{
    std::ofstream f(path);
    if (!f)
        fail("cannot write spans to " + path);
    f << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
      << ",\"spans\":[";
    const auto &spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanLog::Span &s = spans[i];
        f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"label\":\"" << s.label
          << "\",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
          << ",\"parent\":" << s.parent << "}";
    }
    f << "\n]}\n";
    if (!f.flush())
        fail("cannot write spans to " + path);
}

/** Self time per span name: duration minus the time its children cover. */
void
printSelfTimes(const SpanLog &log)
{
    const auto &spans = log.spans();
    std::vector<std::int64_t> child(spans.size(), 0);
    for (const SpanLog::Span &s : spans)
        if (s.parent >= 0)
            child[s.parent] += s.endNs - s.startNs;
    std::map<std::string, std::pair<double, double>> by; // total, self
    for (std::size_t i = 0; i < spans.size(); ++i) {
        double d = static_cast<double>(spans[i].endNs - spans[i].startNs);
        by[spans[i].name].first += d * 1e-9;
        by[spans[i].name].second += (d - child[i]) * 1e-9;
    }
    std::printf("spans (total s, self s):\n");
    for (const auto &[name, ts] : by)
        std::printf("  %-40s %12.6f %12.6f\n", name.c_str(), ts.first,
                    ts.second);
}

int
run(const Options &o)
{
    const WorkloadSpec &spec = findWorkload(o.workload);
    const RayGenConfig rg = raygenConfig(o.seed);
    SpanLog spanLog;
    SpanLog *log = o.trace ? &spanLog : nullptr;

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                spec.name, static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::printf("config: %u SMs, %u event-loop thread(s), detail %.2f, "
                "%dx%d viewport, caches cold at every Simulation::run\n",
                spec.numSms, spec.simThreads, kDetail, kViewport,
                kViewport);

    // Set-up, repeated; the last repetition's inputs are kept.
    std::vector<SceneInput> inputs;
    std::vector<SetupTimes> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        inputs.clear();
        setups.emplace_back();
        inputs = buildInputs(spec, rg, log, setups.back());
    }
    auto setupMedian = [&setups](double SetupTimes::*field) {
        std::vector<double> v;
        for (const SetupTimes &t : setups)
            v.push_back(t.*field);
        return median(v);
    };

    // Timed passes with tracing off, for up to --seconds of simulation.
    // Interference from other load on the host only ever slows a cell
    // down, so each cell's fastest pass is its estimate. Only the first
    // pass's results are kept; every later pass must reproduce them.
    const Pass first =
        runPass(spec, inputs, rg, spec.simThreads, nullptr, nullptr);
    // Correctness, outside every timed region. Peak RSS is read here,
    // before later passes add the benchmark's own second copy of the
    // results (and allocator fragmentation that grows with pass count).
    const RayCheck rc = checkRays(spec, inputs, first);
    const double rssMb = peakRssMb();
    std::vector<double> bestWall = first.cellWall;
    std::vector<double> bestCpu = first.cellCpu;
    std::vector<double> wall = {first.wall};
    std::uint64_t nondeterministic = 0;
    // Stop before a pass that would run past --seconds, judged by the
    // last pass, so a run's length does not depend on its overshoot.
    for (double timed = first.wall; timed + wall.back() <= o.seconds;) {
        Pass p = runPass(spec, inputs, rg, spec.simThreads, nullptr,
                         nullptr);
        for (std::size_t i = 0; i < bestWall.size(); ++i) {
            bestWall[i] = std::min(bestWall[i], p.cellWall[i]);
            bestCpu[i] = std::min(bestCpu[i], p.cellCpu[i]);
        }
        wall.push_back(p.wall);
        timed += p.wall;
        nondeterministic += differingCells(first, p);
    }
    const double runS =
        std::accumulate(bestWall.begin(), bestWall.end(), 0.0);
    const double cpuS = std::accumulate(bestCpu.begin(), bestCpu.end(), 0.0);
    const double medianWall = median(wall);

    std::vector<Metric> e2e = modelMetrics(first);
    e2e.push_back({"setup_s", setupMedian(&SetupTimes::total), "s"});
    e2e.push_back({"peak_rss_mb", rssMb, "MB"});
    // Host time of the simulation: reported with the per-layer metrics,
    // which carry no bound, because the host's speed drifts by more than
    // any useful bound between runs (README.md, "Host time").
    const std::vector<Metric> hostTime = {
        {"sim_rays_per_s", static_cast<double>(first.rays) / runS,
         "rays/s"},
        {"sim_cpu_s", cpuS, "s"},
    };

    // Printed so separate runs can be compared from outside.
    std::vector<std::pair<const char *, std::uint64_t>> digests = {
        {"untraced", digest(first)}};
    std::vector<Metric> layer;
    std::uint64_t perturbed = 0, loopMismatch = 0;
    if (o.trace) {
        CycleProfiler profBase, profProp;
        CycleProfiler *profs[2] = {&profBase, &profProp};
        Pass traced = runPass(spec, inputs, rg, spec.simThreads, profs, log);
        perturbed = differingCells(first, traced);
        digests.push_back({"traced", digest(traced)});

        // The other event loop once: sequential for a sharded workload,
        // sharded (2 workers) for a sequential one.
        const bool sharded = spec.simThreads > 1;
        Pass other = runPass(spec, inputs, rg, sharded ? 1 : 2, nullptr,
                             nullptr);
        loopMismatch = differingCells(first, other);
        digests.push_back({sharded ? "sequential" : "sharded",
                           digest(other)});
        // Single passes are compared with the median pass.
        const double seqWall = sharded ? other.wall : medianWall;
        const double shardWall = sharded ? medianWall : other.wall;
        const double shardCpuPerWall =
            sharded ? cpuS / runS : other.cpu / other.wall;

        layer = layerCounters(first);
        layer.push_back(
            {"repacker.warp_fill",
             repackWarpFill(profProp, SimConfig::proposed().rt.warpSize),
             "ratio"});
        addCycleShares(layer, "baseline", profBase);
        addCycleShares(layer, "proposed", profProp);
        const double tris =
            static_cast<double>(setups.back().triangles);
        const double setupRays = static_cast<double>(setups.back().rays);
        const double rays = static_cast<double>(first.rays);
        layer.insert(layer.end(), hostTime.begin(), hostTime.end());
        std::vector<Metric> host = {
            {"scene.make_s", setupMedian(&SetupTimes::make), "s"},
            {"bvh.build_s", setupMedian(&SetupTimes::build), "s"},
            {"bvh.build_ns_per_tri",
             1e9 * setupMedian(&SetupTimes::build) / tris, "ns"},
            {"rays.gen_s", setupMedian(&SetupTimes::gen), "s"},
            {"rays.gen_ns_per_ray",
             1e9 * setupMedian(&SetupTimes::gen) / setupRays, "ns"},
            {"gpu.run_s", runS, "s"},
            {"gpu.ns_per_ray", 1e9 * runS / rays, "ns"},
            {"gpu.ns_per_node_test", 1e9 * runS / nodeTests(first), "ns"},
            {"gpu.shard_speedup", seqWall / shardWall, "x"},
            {"gpu.shard_cpu_per_wall", shardCpuPerWall, "ratio"},
            {"trace.overhead", traced.wall / medianWall, "x"},
            {"trace.perturbation", static_cast<double>(perturbed),
             "count"},
        };
        layer.insert(layer.end(), host.begin(), host.end());
    }
    const double errorRate =
        static_cast<double>(rc.failed) / static_cast<double>(rc.attempted);

    std::printf("passes: %zu, rays per pass: %llu, wall s:", wall.size(),
                static_cast<unsigned long long>(first.rays));
    for (double w : wall)
        std::printf(" %.3f", w);
    std::printf("\n");
    for (const auto &[pass, d] : digests)
        std::printf("digest %s: %016llx\n", pass,
                    static_cast<unsigned long long>(d));
    std::printf("per scene: baseline cycles, proposed cycles, speedup, "
                "rays per configuration\n");
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto &cells = first.results[i];
        std::printf("  %-4s %12llu %12llu %8.4f %10llu\n",
                    inputs[i].w.scene.shortName.c_str(),
                    static_cast<unsigned long long>(cells[0].cycles),
                    static_cast<unsigned long long>(cells[1].cycles),
                    ratio(static_cast<double>(cells[0].cycles),
                          static_cast<double>(cells[1].cycles)),
                    static_cast<unsigned long long>(
                        cells[1].stats.get("rays_completed")));
    }
    printMetrics("end-to-end:", e2e);
    std::printf("  %-40s %20.6f ratio\n", "ray_error_rate", errorRate);
    if (o.trace) {
        printMetrics("per-layer:", layer);
        printSelfTimes(spanLog);
    } else {
        printMetrics("host time (no bound):", hostTime);
    }
    if (spec.kind == Kind::Ao) {
        const Totals prop = totals(first, 1);
        const double rays = static_cast<double>(prop.rays);
        std::printf(
            "paper (model unvalidated against hardware): Fig. 12 AO "
            "speedup %.2fx unsorted geomean vs model_speedup %.4fx; "
            "Table 5 v = %.3f vs %.4f, p = %.3f vs %.4f\n",
            kPaperSpeedupFig12, e2e[0].value, kPaperVerifiedRate,
            ratio(static_cast<double>(prop.stats.get("rays_verified")), rays),
            kPaperPredictedRate,
            ratio(static_cast<double>(prop.stats.get("rays_predicted")),
                  rays));
    }
    std::printf("checks: ray_errors=%llu/%llu nondeterministic_cells=%llu "
                "perturbed_cells=%llu loop_mismatch_cells=%llu\n",
                static_cast<unsigned long long>(rc.failed),
                static_cast<unsigned long long>(rc.attempted),
                static_cast<unsigned long long>(nondeterministic),
                static_cast<unsigned long long>(perturbed),
                static_cast<unsigned long long>(loopMismatch));

    if (o.trace) {
        const std::string path = o.spansDir + "/spans-" + o.workload +
                                 "-seed" + std::to_string(o.seed) +
                                 ".json";
        writeSpans(path, o, spanLog);
        std::printf("spans: %s\n", path.c_str());
    }

    const bool correct = rc.failed == 0 && nondeterministic == 0 &&
                         perturbed == 0 && loopMismatch == 0;
    const std::vector<Metric> &out = o.trace ? layer : e2e;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(rc.attempted);
    json += ", \"failed\": " + std::to_string(rc.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.size(); ++i)
        json += (i ? ", \"" : "\"") + out[i].name + "\": {\"value\": " +
                jsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit +
                "\"}";
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    refuseSimulationEnv();
    Options o = parseArgs(argc, argv);
    try {
        return run(o);
    } catch (const std::exception &e) {
        fail(std::string("error: ") + e.what());
    }
}
