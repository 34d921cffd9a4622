/**
 * @file
 * Summarise the observer files a simulator run writes (see
 * docs/observability.md):
 *
 *   rtp_report trace <trace.json>         Chrome trace (RTP_TRACE)
 *   rtp_report timeline <telemetry.json>  telemetry timeline
 *                                         (RTP_TELEMETRY)
 *   rtp_report cycles <profile.json>      cycle-attribution profile
 *                                         (RTP_PROFILE)
 *
 * Every subcommand validates its file before it prints anything it
 * read from it. Exit codes: 0 on valid input, 1 on malformed input or
 * I/O failure, 2 on usage errors, 3 on valid input that is degraded —
 * a trace whose ring dropped events, a timeline that dropped samples or
 * has fewer than 3, a profile that breaks the conservation law. CI uses
 * the exit code to smoke-test observed runs.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "util/json.hpp"
#include "util/schema.hpp"

namespace {

using rtp::JsonValue;

/**
 * Warn on stderr when @p ver names a schema newer than this build
 * knows. Documents without the key are pre-versioning output. The
 * fields the trace and timeline reports read are append-only, so they
 * parse a newer document anyway.
 */
void
warnIfNewerSchema(const char *sub, const char *path, const JsonValue *ver)
{
    if (ver && ver->isNumber() &&
        !rtp::schemaVersionKnown(static_cast<std::uint64_t>(ver->number)))
        std::fprintf(stderr,
                     "rtp_report %s: warning: %s has schema_version "
                     "%.0f, newer than supported %u; parsing anyway\n",
                     sub, path, ver->number, rtp::kResultSchemaVersion);
}

// ---------------------------------------------------------------------
// trace: Chrome-trace JSON from the TraceSink.
//
// Validates the file (traceEvents array, required per-event fields) and
// prints:
//   - per-warp critical path: warp lifetime spans, the longest warps
//   - predictor outcome summary: mispredict restart cost and the node
//     fetches wasted in abandoned verification traversals
//   - cache miss latency percentiles per level (exact, from args.lat)
//   - DRAM row-hit rate and bank pressure
//   - repacker activity (full / timeout / drain flushes)
// Exit 3 means the ring buffer dropped events: every summary is then
// computed from a truncated window that lacks the oldest (warm-up)
// events.
// ---------------------------------------------------------------------

/** Exact nearest-rank percentile of a sorted sample vector. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p / 100.0 * static_cast<double>(sorted.size());
    std::size_t idx = rank <= 1.0
                          ? 0
                          : static_cast<std::size_t>(rank + 0.5) - 1;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

struct WarpSpan
{
    double ts = 0.0;
    double dur = 0.0;
    double tid = 0.0;
    double warp = 0.0;
    double rays = 0.0;
};

void
printLatencyLine(const char *label, std::vector<double> &lat)
{
    std::sort(lat.begin(), lat.end());
    std::printf("  %-12s n=%-8zu p50=%-7.0f p90=%-7.0f p99=%-7.0f "
                "max=%.0f\n",
                label, lat.size(), percentile(lat, 50.0),
                percentile(lat, 90.0), percentile(lat, 99.0),
                lat.empty() ? 0.0 : lat.back());
}

int
traceReport(const JsonValue &root, const char *path)
{
    // The versioned schema rides in otherData.
    const JsonValue *other = root.find("otherData");
    if (other)
        warnIfNewerSchema("trace", path, other->find("schema_version"));
    const JsonValue *events = root.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr,
                     "rtp_report trace: %s: missing traceEvents array\n",
                     path);
        return 1;
    }

    // Per-event validation + bucketing by display name.
    std::vector<WarpSpan> warps;
    std::vector<double> mispredictDur;
    std::vector<double> mispredictWaste;
    std::uint64_t verifies = 0, lookups = 0, lookupHits = 0;
    std::uint64_t trains = 0;
    std::vector<double> l1MissLat, l2MissLat, nodeFetchLat;
    std::uint64_t l1Hits = 0, l2Hits = 0, mshrMerges = 0;
    std::uint64_t inflightBypasses = 0;
    std::uint64_t dramAccesses = 0, dramRowHits = 0;
    double dramBusyAcc = 0.0;
    std::uint64_t collects = 0, collectedRays = 0;
    std::uint64_t flushFull = 0, flushTimeout = 0, flushDrain = 0;
    std::uint64_t warpDispatches = 0, nodeFetchIssues = 0;

    std::size_t i = 0;
    for (const JsonValue &ev : events->array) {
        if (!ev.isObject()) {
            std::fprintf(stderr,
                         "rtp_report trace: event %zu is not an object\n",
                         i);
            return 1;
        }
        const JsonValue *name = ev.find("name");
        const JsonValue *ph = ev.find("ph");
        if (!name || !name->isString() || !ph || !ph->isString()) {
            std::fprintf(
                stderr,
                "rtp_report trace: event %zu lacks name/ph strings\n", i);
            return 1;
        }
        if (ph->str != "M") {
            const JsonValue *ts = ev.find("ts");
            if (!ts || !ts->isNumber()) {
                std::fprintf(stderr,
                             "rtp_report trace: event %zu (%s) lacks a "
                             "numeric ts\n",
                             i, name->str.c_str());
                return 1;
            }
        }
        ++i;

        const JsonValue *args = ev.find("args");
        const std::string &n = name->str;
        if (n == "warp") {
            WarpSpan w;
            w.ts = ev.numberAt("ts");
            w.dur = ev.numberAt("dur");
            w.tid = ev.numberAt("tid");
            if (args) {
                w.warp = args->numberAt("warp");
                w.rays = args->numberAt("rays");
            }
            warps.push_back(w);
        } else if (n == "warp_dispatch") {
            warpDispatches++;
        } else if (n == "mispredict") {
            mispredictDur.push_back(ev.numberAt("dur"));
            if (args)
                mispredictWaste.push_back(
                    args->numberAt("wasted_fetches"));
        } else if (n == "pred_verify") {
            verifies++;
        } else if (n == "pred_lookup") {
            lookups++;
            if (args && args->numberAt("hit") != 0.0)
                lookupHits++;
        } else if (n == "pred_train") {
            trains++;
        } else if (n == "l1_miss") {
            if (args)
                l1MissLat.push_back(args->numberAt("lat"));
        } else if (n == "l2_miss") {
            if (args)
                l2MissLat.push_back(args->numberAt("lat"));
        } else if (n == "l1_hit") {
            l1Hits++;
        } else if (n == "l2_hit") {
            l2Hits++;
        } else if (n == "l1_mshr_merge" || n == "l2_mshr_merge") {
            mshrMerges++;
        } else if (n == "l1_inflight_bypass" ||
                   n == "l2_inflight_bypass") {
            inflightBypasses++;
        } else if (n == "dram_access") {
            dramAccesses++;
            if (args) {
                if (args->numberAt("row_hit") != 0.0)
                    dramRowHits++;
                dramBusyAcc += args->numberAt("busy_banks");
            }
        } else if (n == "node_fetch") {
            if (args)
                nodeFetchLat.push_back(args->numberAt("lat"));
        } else if (n == "node_fetch_issue") {
            nodeFetchIssues++;
        } else if (n == "repack_collect") {
            collects++;
            if (args)
                collectedRays +=
                    static_cast<std::uint64_t>(args->numberAt("count"));
        } else if (n == "repack_flush") {
            double kind = args ? args->numberAt("timeout") : 0.0;
            if (kind == 1.0)
                flushTimeout++;
            else if (kind == 2.0)
                flushDrain++;
            else
                flushFull++;
        }
    }

    double dropped = other ? other->numberAt("dropped_events") : 0.0;
    std::printf("rtp_report trace: %s\n", path);
    std::printf("events: %zu", events->array.size());
    if (other)
        std::printf("  (buffered=%.0f dropped=%.0f)",
                    other->numberAt("buffered_events"), dropped);
    std::printf("\n");
    if (dropped > 0.0)
        std::printf("*** WARNING: the trace ring dropped %.0f events; "
                    "every summary below is computed from a truncated "
                    "window (the oldest events are missing). Re-trace "
                    "with a larger sink capacity or a smaller "
                    "workload. ***\n",
                    dropped);

    std::printf("\n== warp critical path ==\n");
    std::printf("  dispatches=%llu completed=%zu\n",
                static_cast<unsigned long long>(warpDispatches),
                warps.size());
    if (!warps.empty()) {
        double total = 0.0, maxd = 0.0;
        for (const WarpSpan &w : warps) {
            total += w.dur;
            maxd = std::max(maxd, w.dur);
        }
        std::printf("  mean_lifetime=%.1f max_lifetime=%.0f cycles\n",
                    total / static_cast<double>(warps.size()), maxd);
        std::sort(warps.begin(), warps.end(),
                  [](const WarpSpan &a, const WarpSpan &b) {
                      return a.dur > b.dur;
                  });
        std::size_t top = std::min<std::size_t>(5, warps.size());
        std::printf("  longest warps (the critical path tail):\n");
        for (std::size_t k = 0; k < top; ++k)
            std::printf("    sm=%.0f warp=%.0f rays=%.0f "
                        "[%.0f..%.0f] dur=%.0f\n",
                        warps[k].tid, warps[k].warp, warps[k].rays,
                        warps[k].ts, warps[k].ts + warps[k].dur,
                        warps[k].dur);
    }

    std::printf("\n== predictor ==\n");
    std::printf("  lookups=%llu hits=%llu verifies=%llu "
                "mispredicts=%zu trains=%llu\n",
                static_cast<unsigned long long>(lookups),
                static_cast<unsigned long long>(lookupHits),
                static_cast<unsigned long long>(verifies),
                mispredictDur.size(),
                static_cast<unsigned long long>(trains));
    if (!mispredictDur.empty()) {
        double dtot = 0.0, wtot = 0.0;
        for (double d : mispredictDur)
            dtot += d;
        for (double w : mispredictWaste)
            wtot += w;
        std::sort(mispredictDur.begin(), mispredictDur.end());
        std::printf("  restart cost: mean=%.1f p90=%.0f max=%.0f "
                    "cycles; mean wasted fetches=%.2f\n",
                    dtot / static_cast<double>(mispredictDur.size()),
                    percentile(mispredictDur, 90.0),
                    mispredictDur.back(),
                    mispredictWaste.empty()
                        ? 0.0
                        : wtot / static_cast<double>(
                                     mispredictWaste.size()));
    }

    std::printf("\n== memory ==\n");
    std::printf("  l1: hits=%llu  l2: hits=%llu  mshr_merges=%llu "
                "inflight_bypasses=%llu\n",
                static_cast<unsigned long long>(l1Hits),
                static_cast<unsigned long long>(l2Hits),
                static_cast<unsigned long long>(mshrMerges),
                static_cast<unsigned long long>(inflightBypasses));
    printLatencyLine("l1_miss", l1MissLat);
    printLatencyLine("l2_miss", l2MissLat);
    printLatencyLine("node_fetch", nodeFetchLat);
    std::printf("  node_fetch warp-merged duplicates=%llu\n",
                static_cast<unsigned long long>(nodeFetchIssues));
    if (dramAccesses > 0)
        std::printf("  dram: accesses=%llu row_hit_rate=%.3f "
                    "mean_busy_banks=%.2f\n",
                    static_cast<unsigned long long>(dramAccesses),
                    static_cast<double>(dramRowHits) /
                        static_cast<double>(dramAccesses),
                    dramBusyAcc / static_cast<double>(dramAccesses));

    std::printf("\n== repacker ==\n");
    std::printf("  collects=%llu rays=%llu flushes: full=%llu "
                "timeout=%llu drain=%llu\n",
                static_cast<unsigned long long>(collects),
                static_cast<unsigned long long>(collectedRays),
                static_cast<unsigned long long>(flushFull),
                static_cast<unsigned long long>(flushTimeout),
                static_cast<unsigned long long>(flushDrain));
    if (dropped > 0.0) {
        std::fprintf(stderr,
                     "rtp_report trace: %s: %.0f events were dropped by "
                     "the trace ring — summaries above are from a "
                     "truncated window\n",
                     path, dropped);
        return 3;
    }
    return 0;
}

// ---------------------------------------------------------------------
// timeline: telemetry timeline JSON from the TelemetrySampler.
//
// Counters in the timeline are cumulative at each sample cycle; the
// report differences consecutive samples into per-interval rates and
// prints:
//   - ASCII sparklines of the headline series (predictor hit rate,
//     prediction accuracy, ray-buffer occupancy, RT-unit busy fraction,
//     L1/L2 hit rates, DRAM busy fraction, ray completion throughput)
//   - predictor warm-up analysis: the cycle at which the interval hit
//     rate first reaches 80% of its steady-state (last-half mean) value
//   - occupancy dips: intervals whose ray-buffer occupancy falls below
//     half the run median, with the concurrent mispredict rate
// Exit 3 means the sampler dropped records, or fewer than 3 samples
// were taken (too short to analyse).
// ---------------------------------------------------------------------

/** One aggregated (summed over SMs) sample. */
struct Row
{
    double cycle = 0;
    double busy = 0;
    double resident = 0, capacity = 0;
    double raysCompleted = 0;
    double predLookups = 0, predHits = 0;
    double verified = 0, mispredicted = 0;
    double l1Hits = 0, l1Misses = 0;
    double l2Hits = 0, l2Misses = 0;
    double dramBusyAccum = 0, dramBusySamples = 0, dramNumBanks = 0;
};

/** NaN marks intervals where a rate's denominator was zero. */
const double kNone = std::nan("");

bool
valid(double v)
{
    return !std::isnan(v);
}

/** Per-interval rate series derived from consecutive Rows. */
struct Series
{
    std::string name;
    std::vector<double> v; //!< one entry per interval; kNone = no data
    double scaleMax = 1.0; //!< sparkline full-scale (1.0 for ratios)
};

/** Resample @p v to at most @p width buckets (mean of valid points). */
std::vector<double>
resample(const std::vector<double> &v, std::size_t width)
{
    if (v.size() <= width)
        return v;
    std::vector<double> out(width, kNone);
    for (std::size_t b = 0; b < width; ++b) {
        std::size_t lo = b * v.size() / width;
        std::size_t hi = (b + 1) * v.size() / width;
        double sum = 0;
        std::size_t n = 0;
        for (std::size_t i = lo; i < hi && i < v.size(); ++i) {
            if (valid(v[i])) {
                sum += v[i];
                n++;
            }
        }
        if (n)
            out[b] = sum / static_cast<double>(n);
    }
    return out;
}

void
printSparkline(const Series &s)
{
    static const char kRamp[] = " .:-=+*#%@";
    const int kLevels = static_cast<int>(sizeof(kRamp) - 2);
    std::vector<double> r = resample(s.v, 60);
    double hi = s.scaleMax;
    if (hi <= 0.0) {
        // Auto-scale throughput-style series to their own peak.
        for (double x : r)
            if (valid(x))
                hi = std::max(hi, x);
        if (hi <= 0.0)
            hi = 1.0;
    }
    std::string line;
    double last = kNone, peak = 0.0;
    double sum = 0.0;
    std::size_t n = 0;
    for (double x : s.v) {
        if (!valid(x))
            continue;
        sum += x;
        n++;
        peak = std::max(peak, x);
        last = x;
    }
    for (double x : r) {
        if (!valid(x)) {
            line += ' ';
            continue;
        }
        int lvl = static_cast<int>(x / hi * kLevels + 0.5);
        lvl = std::max(0, std::min(kLevels, lvl));
        line += kRamp[lvl];
    }
    std::printf("  %-14s |%s|\n", s.name.c_str(), line.c_str());
    if (n)
        std::printf("  %14s  mean=%.3f peak=%.3f final=%.3f "
                    "(full scale %.3g)\n",
                    "", sum / static_cast<double>(n), peak, last, hi);
    else
        std::printf("  %14s  (no data)\n", "");
}

/** Median of the valid entries (0 when none). */
double
medianOf(const std::vector<double> &v)
{
    std::vector<double> s;
    for (double x : v)
        if (valid(x))
            s.push_back(x);
    if (s.empty())
        return 0.0;
    std::sort(s.begin(), s.end());
    return s[s.size() / 2];
}

int
timelineReport(const JsonValue &root, const char *path)
{
    // The versioned schema sits at the document root.
    warnIfNewerSchema("timeline", path, root.find("schema_version"));
    const JsonValue *tel = root.find("telemetry");
    if (!tel || !tel->isObject()) {
        std::fprintf(stderr,
                     "rtp_report timeline: %s: missing telemetry "
                     "object\n",
                     path);
        return 1;
    }
    const JsonValue *samples = tel->find("samples");
    if (!samples || !samples->isArray()) {
        std::fprintf(stderr,
                     "rtp_report timeline: %s: missing samples array\n",
                     path);
        return 1;
    }
    double period = tel->numberAt("period");
    double numSms = tel->numberAt("num_sms");
    double droppedRecords = tel->numberAt("dropped_records");

    // Flatten each sample: sum per-SM counters, keep global ones.
    std::vector<Row> rows;
    rows.reserve(samples->array.size());
    for (const JsonValue &s : samples->array) {
        const JsonValue *sms = s.find("sms");
        const JsonValue *global = s.find("global");
        if (!sms || !sms->isArray() || !global || !global->isObject()) {
            std::fprintf(stderr,
                         "rtp_report timeline: %s: sample %zu is not an "
                         "object with sms/global\n",
                         path, rows.size());
            return 1;
        }
        Row r;
        r.cycle = s.numberAt("cycle");
        for (const JsonValue &sm : sms->array) {
            r.busy += sm.numberAt("busy_cycles");
            r.resident += sm.numberAt("resident_rays");
            r.capacity += sm.numberAt("ray_buffer_capacity");
            r.raysCompleted += sm.numberAt("rays_completed");
            r.predLookups += sm.numberAt("pred_lookups");
            r.predHits += sm.numberAt("pred_hits");
            r.verified += sm.numberAt("rays_verified");
            r.mispredicted += sm.numberAt("rays_mispredicted");
            r.l1Hits += sm.numberAt("l1_hits");
            r.l1Misses += sm.numberAt("l1_misses");
        }
        r.l2Hits = global->numberAt("l2_hits");
        r.l2Misses = global->numberAt("l2_misses");
        r.dramBusyAccum = global->numberAt("dram_busy_accum");
        r.dramBusySamples = global->numberAt("dram_busy_samples");
        r.dramNumBanks = global->numberAt("dram_num_banks");
        rows.push_back(r);
    }

    std::printf("rtp_report timeline: %s\n", path);
    std::printf("samples: %zu  period: %.0f cycles  sms: %.0f",
                rows.size(), period, numSms);
    if (!rows.empty())
        std::printf("  span: [%.0f..%.0f]", rows.front().cycle,
                    rows.back().cycle);
    std::printf("\n");
    if (droppedRecords > 0)
        std::printf("*** WARNING: %.0f samples were dropped (record "
                    "store full); the timeline tail is missing ***\n",
                    droppedRecords);
    if (rows.size() < 3) {
        std::printf("timeline too short to analyse (need >= 3 "
                    "samples; raise the workload or lower "
                    "RTP_TELEMETRY_PERIOD)\n");
        return 3;
    }

    // Difference consecutive samples into per-interval rate series.
    std::size_t n = rows.size() - 1;
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : kNone;
    };
    Series predRate{"pred hit rate", {}, 1.0};
    Series accuracy{"pred accuracy", {}, 1.0};
    Series occupancy{"occupancy", {}, 1.0};
    Series busyFrac{"busy fraction", {}, 1.0};
    Series l1Rate{"l1 hit rate", {}, 1.0};
    Series l2Rate{"l2 hit rate", {}, 1.0};
    Series dramBusy{"dram busy", {}, 1.0};
    Series throughput{"rays/kcycle", {}, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
        const Row &a = rows[i];
        const Row &b = rows[i + 1];
        double cycles = b.cycle - a.cycle;
        predRate.v.push_back(ratio(b.predHits - a.predHits,
                                   b.predLookups - a.predLookups));
        double verif = b.verified - a.verified;
        double mispred = b.mispredicted - a.mispredicted;
        accuracy.v.push_back(ratio(verif, verif + mispred));
        occupancy.v.push_back(ratio(b.resident, b.capacity));
        busyFrac.v.push_back(
            ratio(b.busy - a.busy, cycles * numSms));
        double l1h = b.l1Hits - a.l1Hits;
        double l1m = b.l1Misses - a.l1Misses;
        l1Rate.v.push_back(ratio(l1h, l1h + l1m));
        double l2h = b.l2Hits - a.l2Hits;
        double l2m = b.l2Misses - a.l2Misses;
        l2Rate.v.push_back(ratio(l2h, l2h + l2m));
        double busyAcc = b.dramBusyAccum - a.dramBusyAccum;
        double busySamp = b.dramBusySamples - a.dramBusySamples;
        dramBusy.v.push_back(
            busySamp > 0.0 && b.dramNumBanks > 0.0
                ? (busyAcc / busySamp) / b.dramNumBanks
                : kNone);
        throughput.v.push_back(
            cycles > 0.0
                ? (b.raysCompleted - a.raysCompleted) / cycles * 1000.0
                : kNone);
    }

    std::printf("\n== timelines (one column ~ %.0f cycles) ==\n",
                period * std::max<double>(
                             1.0, static_cast<double>(n) / 60.0));
    for (const Series *s :
         {&predRate, &accuracy, &occupancy, &busyFrac, &l1Rate,
          &l2Rate, &dramBusy, &throughput})
        printSparkline(*s);

    // Predictor warm-up: the hit rate climbs from zero (empty table) to
    // a steady-state plateau as training fills entries. Steady state is
    // the mean over the last half of the intervals; warm-up ends at the
    // first interval reaching 80% of it.
    std::printf("\n== predictor warm-up ==\n");
    double steady = 0.0;
    std::size_t steadyN = 0;
    for (std::size_t i = n / 2; i < n; ++i) {
        if (valid(predRate.v[i])) {
            steady += predRate.v[i];
            steadyN++;
        }
    }
    if (steadyN == 0 || steady <= 0.0) {
        std::printf("  no predictor activity in the timeline "
                    "(baseline run or predictor disabled)\n");
    } else {
        steady /= static_cast<double>(steadyN);
        std::size_t warm = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (valid(predRate.v[i]) &&
                predRate.v[i] >= 0.8 * steady) {
                warm = i;
                break;
            }
        }
        double firstRate =
            valid(predRate.v[0]) ? predRate.v[0] : 0.0;
        std::printf("  steady-state hit rate (last half): %.3f\n",
                    steady);
        std::printf("  first-interval hit rate:            %.3f\n",
                    firstRate);
        if (warm < n)
            std::printf("  warm-up ends (80%% of steady): cycle %.0f "
                        "(interval %zu of %zu)\n",
                        rows[warm + 1].cycle, warm + 1, n);
        else
            std::printf("  hit rate never reached 80%% of "
                        "steady-state\n");
    }

    // Occupancy dips: intervals whose occupancy drops below half the
    // run median, annotated with the concurrent mispredict rate.
    std::printf("\n== occupancy dips ==\n");
    double med = medianOf(occupancy.v);
    std::size_t dips = 0, worst = n;
    double worstVal = 2.0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!valid(occupancy.v[i]) || med <= 0.0)
            continue;
        if (occupancy.v[i] < 0.5 * med) {
            dips++;
            if (occupancy.v[i] < worstVal) {
                worstVal = occupancy.v[i];
                worst = i;
            }
        }
    }
    std::printf("  median occupancy: %.3f\n", med);
    if (dips == 0) {
        std::printf("  no interval fell below half the median\n");
    } else {
        std::printf("  %zu of %zu intervals below half the median\n",
                    dips, n);
        double mispredRate =
            valid(accuracy.v[worst]) ? 1.0 - accuracy.v[worst] : 0.0;
        std::printf("  worst dip: occupancy %.3f at cycle %.0f "
                    "(interval mispredict rate %.3f)\n",
                    worstVal, rows[worst + 1].cycle, mispredRate);
    }

    return droppedRecords > 0 ? 3 : 0;
}

// ---------------------------------------------------------------------
// cycles: cycle-attribution profile JSON from the CycleProfiler.
//
// Requires the current schema version, re-checks the conservation law
// offline — every SM's categories must sum to the elapsed cycle count —
// and prints:
//   - the aggregate attribution ranked by share of total cycles;
//   - a per-SM breakdown table, categories as columns in that rank;
//   - a predictor cost/benefit section from the meta tallies: cycles
//     spent looking up and verifying predictions against the cycles
//     the predictor removed from box/tri work, plus cache behaviour.
// Exit 3 means the conservation law fails.
// ---------------------------------------------------------------------

/** One category's global tally, for ranking columns. */
struct CatTotal
{
    std::string name;
    std::uint64_t cycles = 0;
};

double
pctOf(std::uint64_t part, std::uint64_t whole)
{
    return whole ? 100.0 * static_cast<double>(part) /
                       static_cast<double>(whole)
                 : 0.0;
}

/** The "total" count of category @p name in a cycles object. */
std::uint64_t
categoryCycles(const JsonValue *cycles, const std::string &name)
{
    const JsonValue *cell = cycles ? cycles->find(name) : nullptr;
    return static_cast<std::uint64_t>(
        cell ? cell->numberAt("total", 0.0) : 0.0);
}

int
cyclesReport(const JsonValue &root, const char *path)
{
    double schema = root.numberAt("schema_version", -1.0);
    if (schema != static_cast<double>(rtp::kResultSchemaVersion)) {
        std::fprintf(stderr,
                     "rtp_report cycles: %s: schema_version %g != %u\n",
                     path, schema, rtp::kResultSchemaVersion);
        return 1;
    }
    const JsonValue *prof = root.find("profile");
    if (!prof || !prof->isObject()) {
        std::fprintf(stderr,
                     "rtp_report cycles: %s: missing \"profile\" "
                     "object\n",
                     path);
        return 1;
    }
    const JsonValue *cats = prof->find("categories");
    const JsonValue *sms = prof->find("sms");
    const JsonValue *total = prof->find("total");
    if (!cats || !cats->isArray() || !sms || !sms->isArray() ||
        !total || !total->isObject()) {
        std::fprintf(
            stderr,
            "rtp_report cycles: %s: missing categories/sms/total\n",
            path);
        return 1;
    }
    const auto elapsed = static_cast<std::uint64_t>(
        prof->numberAt("elapsed_cycles", 0.0));
    const auto runs =
        static_cast<std::uint64_t>(prof->numberAt("runs", 0.0));

    std::vector<std::string> names;
    for (const JsonValue &c : cats->array)
        names.push_back(c.str);

    // Offline conservation re-check: the writer's InvariantChecker
    // already enforced this under RTP_CHECK=1, but the report must not
    // trust the file it summarises.
    bool conserved = true;
    for (const JsonValue &sm : sms->array) {
        const JsonValue *cycles = sm.find("cycles");
        if (!cycles || !cycles->isObject()) {
            std::fprintf(stderr,
                         "rtp_report cycles: %s: SM row without "
                         "cycles\n",
                         path);
            return 1;
        }
        std::uint64_t sum = 0;
        for (const std::string &n : names)
            sum += categoryCycles(cycles, n);
        auto smTotal = static_cast<std::uint64_t>(
            sm.numberAt("total_cycles", 0.0));
        if (sum != smTotal || sum != elapsed) {
            std::fprintf(stderr,
                         "rtp_report cycles: conservation FAILED on SM "
                         "%g: category sum %llu, total_cycles %llu, "
                         "elapsed %llu\n",
                         sm.numberAt("sm", -1.0),
                         static_cast<unsigned long long>(sum),
                         static_cast<unsigned long long>(smTotal),
                         static_cast<unsigned long long>(elapsed));
            conserved = false;
        }
    }

    // Rank categories by global cost; print the aggregate first, then
    // the per-SM table with ranked columns.
    const JsonValue *totalCycles = total->find("cycles");
    std::vector<CatTotal> ranked;
    std::uint64_t grand = 0;
    for (const std::string &n : names) {
        CatTotal ct{n, categoryCycles(totalCycles, n)};
        grand += ct.cycles;
        ranked.push_back(ct);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const CatTotal &a, const CatTotal &b) {
                         return a.cycles > b.cycles;
                     });

    std::printf("Cycle attribution: %zu SM(s), %llu run(s), "
                "%llu elapsed cycles/SM\n\n",
                sms->array.size(),
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(elapsed));
    std::printf("%-20s %14s %7s\n", "category", "cycles", "share");
    for (const CatTotal &ct : ranked)
        std::printf("%-20s %14llu %6.1f%%\n", ct.name.c_str(),
                    static_cast<unsigned long long>(ct.cycles),
                    pctOf(ct.cycles, grand));

    std::printf("\nPer-SM shares (%% of elapsed):\n%-5s", "sm");
    for (const CatTotal &ct : ranked)
        std::printf(" %10.10s", ct.name.c_str());
    std::printf("\n");
    for (const JsonValue &sm : sms->array) {
        std::printf("%-5g", sm.numberAt("sm", -1.0));
        const JsonValue *cycles = sm.find("cycles");
        for (const CatTotal &ct : ranked)
            std::printf(" %9.1f%%",
                        pctOf(categoryCycles(cycles, ct.name), elapsed));
        std::printf("\n");
    }

    // Predictor cost/benefit from the meta tallies. Cost: cycles in
    // lookup and verification plus the restart redo work. Benefit is
    // indirect — fewer box/tri cycles — so report the raw numbers and
    // the hit rate and let the reader compare against a baseline
    // profile; an attribution profile of one run cannot know the
    // counterfactual.
    const JsonValue *meta = total->find("meta");
    if (meta && meta->isObject()) {
        auto m = [&](const char *k) {
            return static_cast<std::uint64_t>(meta->numberAt(k, 0.0));
        };
        auto cat = [&](const char *n) {
            return static_cast<unsigned long long>(
                categoryCycles(totalCycles, n));
        };
        std::uint64_t lookups = m("pred_lookups");
        std::uint64_t hits = m("pred_hits");
        std::printf("\nPredictor cost/benefit:\n");
        std::printf("  lookups %llu, table hits %llu (%.1f%%)\n",
                    static_cast<unsigned long long>(lookups),
                    static_cast<unsigned long long>(hits),
                    pctOf(hits, lookups));
        std::uint64_t cost = cat("pred_lookup") + cat("pred_verify") +
                             cat("mispredict_restart");
        std::printf("  cost cycles: lookup %llu + verify %llu + "
                    "restart %llu = %llu (%.1f%% of total)\n",
                    cat("pred_lookup"), cat("pred_verify"),
                    cat("mispredict_restart"),
                    static_cast<unsigned long long>(cost),
                    pctOf(cost, grand));
        std::printf("  traversal cycles: box %llu, tri %llu\n",
                    cat("box_test"), cat("tri_test"));
        std::printf("  repack: %llu flushes, %llu rays\n",
                    static_cast<unsigned long long>(
                        m("repack_flushes")),
                    static_cast<unsigned long long>(m("repack_rays")));
        std::uint64_t l1h = m("l1_hits"), l1m = m("l1_misses");
        std::uint64_t l2h = m("l2_hits"), l2m = m("l2_misses");
        std::printf("  caches: L1 %.1f%% of %llu, L2 %.1f%% of %llu, "
                    "DRAM row hits %.1f%% of %llu\n",
                    pctOf(l1h, l1h + l1m),
                    static_cast<unsigned long long>(l1h + l1m),
                    pctOf(l2h, l2h + l2m),
                    static_cast<unsigned long long>(l2h + l2m),
                    pctOf(m("dram_row_hits"), m("dram_accesses")),
                    static_cast<unsigned long long>(
                        m("dram_accesses")));
    }

    if (!conserved) {
        std::printf("\nconservation: FAILED\n");
        return 3;
    }
    std::printf("\nconservation: OK (every SM sums to %llu)\n",
                static_cast<unsigned long long>(elapsed));
    return 0;
}

struct Subcommand
{
    const char *name;
    int (*run)(const JsonValue &root, const char *path);
};

constexpr Subcommand kSubcommands[] = {
    {"trace", traceReport},
    {"timeline", timelineReport},
    {"cycles", cyclesReport},
};

} // namespace

int
main(int argc, char **argv)
{
    const Subcommand *sub = nullptr;
    if (argc == 3 && argv[2][0] != '-')
        for (const Subcommand &s : kSubcommands)
            if (std::strcmp(argv[1], s.name) == 0)
                sub = &s;
    if (!sub) {
        std::fprintf(stderr,
                     "usage: rtp_report trace <trace.json>\n"
                     "       rtp_report timeline <telemetry.json>\n"
                     "       rtp_report cycles <profile.json>\n");
        return 2;
    }

    std::string error;
    std::optional<JsonValue> root = rtp::loadJsonFile(argv[2], &error);
    if (!root) {
        std::fprintf(stderr, "rtp_report %s: %s\n", sub->name,
                     error.c_str());
        return 1;
    }
    if (!root->isObject()) {
        std::fprintf(stderr, "rtp_report %s: %s: root is not an object\n",
                     sub->name, argv[2]);
        return 1;
    }
    return sub->run(*root, argv[2]);
}
