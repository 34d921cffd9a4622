#include "util/bench_compare.hpp"

#include <cmath>
#include <cstdio>

namespace rtp {

namespace {

double
relDelta(double base, double cur)
{
    return (cur - base) / std::max(std::fabs(base), 1.0);
}

void
addViolation(std::vector<BenchViolation> &out, const std::string &path,
             const char *kind, double base, double cur,
             std::string message)
{
    BenchViolation v;
    v.path = path;
    v.kind = kind;
    v.baseline = base;
    v.current = cur;
    v.relDelta = relDelta(base, cur);
    v.message = std::move(message);
    out.push_back(std::move(v));
}

const char *
typeName(JsonValue::Type t)
{
    switch (t) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return "bool";
    case JsonValue::Type::Number: return "number";
    case JsonValue::Type::String: return "string";
    case JsonValue::Type::Array: return "array";
    case JsonValue::Type::Object: return "object";
    }
    return "?";
}

void
compareValue(const JsonValue &base, const JsonValue &cur,
             const std::string &path, const BenchDiffOptions &opts,
             std::vector<BenchViolation> &out);

void
compareNumber(const JsonValue &base, const JsonValue &cur,
              const std::string &path, const std::string &key,
              const BenchDiffOptions &opts,
              std::vector<BenchViolation> &out)
{
    double b = base.number;
    double c = cur.number;
    if (isBenchPerfKey(key)) {
        if (opts.skipPerf)
            return;
        // Throughput only gates in the slow direction.
        if (c < b * (1.0 - opts.perfTol)) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "throughput fell %.1f%% (tolerance %.1f%%)",
                          -relDelta(b, c) * 100.0,
                          opts.perfTol * 100.0);
            addViolation(out, path, "perf", b, c, buf);
        }
        return;
    }
    if (std::fabs(c - b) >
        opts.relTol * std::max(std::fabs(b), 1.0)) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "deviates %+.2f%% (tolerance %.2f%%)",
                      relDelta(b, c) * 100.0, opts.relTol * 100.0);
        addViolation(out, path, "value", b, c, buf);
    }
}

void
compareObject(const JsonValue &base, const JsonValue &cur,
              const std::string &path, const BenchDiffOptions &opts,
              std::vector<BenchViolation> &out)
{
    for (const auto &kv : base.object) {
        const std::string &key = kv.first;
        if (isBenchTimingKey(key))
            continue;
        if (key == "histograms" && !opts.includeHistograms)
            continue;
        std::string child =
            path.empty() ? key : path + "." + key;
        const JsonValue *c = cur.find(key);
        if (!c) {
            addViolation(out, child, "missing", kv.second.number, 0.0,
                         "present in baseline, absent in current");
            continue;
        }
        if (kv.second.type != c->type) {
            addViolation(out, child, "type", kv.second.number,
                         c->number,
                         std::string("type changed: ") +
                             typeName(kv.second.type) + " -> " +
                             typeName(c->type));
            continue;
        }
        if (kv.second.isNumber())
            compareNumber(kv.second, *c, child, key, opts, out);
        else
            compareValue(kv.second, *c, child, opts, out);
    }
    // Keys only present in `cur` are new metrics; ignored so extending
    // the bench output never trips the gate on stale baselines.
}

void
compareValue(const JsonValue &base, const JsonValue &cur,
             const std::string &path, const BenchDiffOptions &opts,
             std::vector<BenchViolation> &out)
{
    if (base.type != cur.type) {
        addViolation(out, path, "type", base.number, cur.number,
                     std::string("type changed: ") +
                         typeName(base.type) + " -> " +
                         typeName(cur.type));
        return;
    }
    switch (base.type) {
    case JsonValue::Type::Null:
        break;
    case JsonValue::Type::Bool:
        if (base.boolean != cur.boolean)
            addViolation(out, path, "value", base.boolean ? 1 : 0,
                         cur.boolean ? 1 : 0, "boolean flipped");
        break;
    case JsonValue::Type::Number:
        // Bare numbers (array elements) have no key context; compare
        // with the symmetric deterministic rule.
        compareNumber(base, cur, path, "", opts, out);
        break;
    case JsonValue::Type::String:
        if (base.str != cur.str)
            addViolation(out, path, "value", 0, 0,
                         "\"" + base.str + "\" -> \"" + cur.str +
                             "\"");
        break;
    case JsonValue::Type::Array:
        if (base.array.size() != cur.array.size()) {
            addViolation(out, path, "shape",
                         static_cast<double>(base.array.size()),
                         static_cast<double>(cur.array.size()),
                         "array length changed");
            break;
        }
        for (std::size_t i = 0; i < base.array.size(); ++i)
            compareValue(base.array[i], cur.array[i],
                         path + "[" + std::to_string(i) + "]", opts,
                         out);
        break;
    case JsonValue::Type::Object:
        compareObject(base, cur, path, opts, out);
        break;
    }
}

} // namespace

bool
isBenchTimingKey(const std::string &key)
{
    return key == "wall_seconds" || key == "serial_seconds" ||
           key == "threads" || key == "runs" || key == "timing" ||
           key == "reps";
}

bool
isBenchPerfKey(const std::string &key)
{
    return key == "rays_per_second";
}

std::vector<BenchViolation>
compareBench(const JsonValue &baseline, const JsonValue &current,
             const BenchDiffOptions &opts)
{
    std::vector<BenchViolation> out;
    compareValue(baseline, current, "", opts, out);
    return out;
}

std::string
formatViolation(const BenchViolation &v)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "  %-9s %s\n            baseline=%.17g current=%.17g "
                  "(%+.2f%%) %s",
                  v.kind.c_str(), v.path.c_str(), v.baseline, v.current,
                  v.relDelta * 100.0, v.message.c_str());
    return buf;
}

} // namespace rtp
