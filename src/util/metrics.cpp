#include "util/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/profile.hpp"
#include "util/schema.hpp"
#include "util/stats.hpp"

namespace rtp {

// ---------------------------------------------------------------------------
// HistogramData

HistogramData::HistogramData(std::vector<double> upperBounds)
    : bounds(std::move(upperBounds)), counts(bounds.size() + 1, 0)
{
}

void
HistogramData::observe(double value)
{
    std::size_t i = 0;
    while (i < bounds.size() && value > bounds[i])
        ++i;
    if (counts.size() != bounds.size() + 1)
        counts.assign(bounds.size() + 1, 0);
    ++counts[i];
    sum += value;
    ++count;
}

void
HistogramData::merge(const HistogramData &other)
{
    if (other.counts.empty())
        return;
    if (counts.empty()) {
        *this = other;
        return;
    }
    if (bounds != other.bounds)
        throw std::logic_error("HistogramData::merge: bucket bounds differ");
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts[i] += other.counts[i];
    sum += other.sum;
    count += other.count;
}

// ---------------------------------------------------------------------------
// Formatting helpers

namespace {

/** Shortest decimal string that round-trips to @p v (deterministic). */
std::string
formatDouble(double v)
{
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    if (std::isnan(v))
        return "NaN";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    char buf[64];
    for (int prec = 1; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

std::string
labelSignature(const MetricLabels &labels)
{
    if (labels.empty())
        return std::string();
    std::string sig = "{";
    bool first = true;
    for (const auto &kv : labels) {
        if (!first)
            sig += ",";
        first = false;
        sig += kv.first;
        sig += "=\"";
        sig += MetricsRegistry::escapeLabelValue(kv.second);
        sig += "\"";
    }
    sig += "}";
    return sig;
}

/** Signature with one extra label appended (for histogram le). */
std::string
labelSignatureWith(const MetricLabels &labels, const std::string &extraName,
                   const std::string &extraValue)
{
    MetricLabels all = labels;
    all.emplace_back(extraName, extraValue);
    return labelSignature(all);
}

} // namespace

// ---------------------------------------------------------------------------
// MetricsRegistry

bool
MetricsRegistry::validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               c == '_' || c == ':';
    };
    if (!head(name[0]))
        return false;
    for (char c : name)
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    return true;
}

bool
MetricsRegistry::validLabelName(const std::string &name)
{
    if (name.empty())
        return false;
    auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    };
    if (!head(name[0]))
        return false;
    for (char c : name)
        if (!head(c) && !(c >= '0' && c <= '9'))
            return false;
    return true;
}

std::string
MetricsRegistry::escapeLabelValue(const std::string &value)
{
    std::string out;
    out.reserve(value.size());
    for (char c : value) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '"':
            out += "\\\"";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
MetricsRegistry::escapeHelp(const std::string &help)
{
    std::string out;
    out.reserve(help.size());
    for (char c : help) {
        switch (c) {
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        default:
            out += c;
        }
    }
    return out;
}

std::string
MetricsRegistry::sanitizeName(const std::string &name)
{
    std::string out = name;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!ok)
            c = '_';
    }
    if (out.empty() || (out[0] >= '0' && out[0] <= '9'))
        out.insert(out.begin(), '_');
    return out;
}

MetricsRegistry::Series &
MetricsRegistry::upsert(const std::string &name, const std::string &help,
                        Kind kind, const MetricLabels &labels)
{
    if (!validMetricName(name))
        throw std::logic_error("MetricsRegistry: invalid metric name '" +
                               name + "'");
    for (const auto &kv : labels)
        if (!validLabelName(kv.first))
            throw std::logic_error("MetricsRegistry: invalid label name '" +
                                   kv.first + "'");
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    Family &fam = families_[name];
    if (fam.series.empty()) {
        fam.kind = kind;
        fam.help = help;
    } else if (fam.kind != kind) {
        throw std::logic_error("MetricsRegistry: metric '" + name +
                               "' registered with two kinds");
    }
    Series &s = fam.series[labelSignature(sorted)];
    if (s.labels.empty() && !sorted.empty())
        s.labels = sorted;
    return s;
}

void
MetricsRegistry::addCounter(const std::string &name, const std::string &help,
                            const MetricLabels &labels, double value)
{
    upsert(name, help, Kind::Counter, labels).value += value;
}

void
MetricsRegistry::setGauge(const std::string &name, const std::string &help,
                          const MetricLabels &labels, double value)
{
    upsert(name, help, Kind::Gauge, labels).value = value;
}

HistogramData &
MetricsRegistry::histogram(const std::string &name, const std::string &help,
                           const MetricLabels &labels,
                           const std::vector<double> &bounds)
{
    Series &s = upsert(name, help, Kind::Histogram, labels);
    if (s.hist.counts.empty())
        s.hist = HistogramData(bounds);
    return s.hist;
}

namespace {

const char *
kindName(MetricsRegistry::Kind kind)
{
    switch (kind) {
    case MetricsRegistry::Kind::Counter:
        return "counter";
    case MetricsRegistry::Kind::Gauge:
        return "gauge";
    case MetricsRegistry::Kind::Histogram:
        return "histogram";
    }
    return "untyped";
}

} // namespace

std::string
MetricsRegistry::renderProm() const
{
    std::ostringstream os;
    for (const auto &famKv : families_) {
        const std::string &name = famKv.first;
        const Family &fam = famKv.second;
        if (!fam.help.empty())
            os << "# HELP " << name << " " << escapeHelp(fam.help) << "\n";
        os << "# TYPE " << name << " " << kindName(fam.kind) << "\n";
        for (const auto &serKv : fam.series) {
            const Series &s = serKv.second;
            if (fam.kind != Kind::Histogram) {
                os << name << serKv.first << " " << formatDouble(s.value)
                   << "\n";
                continue;
            }
            std::uint64_t cum = 0;
            for (std::size_t i = 0; i < s.hist.counts.size(); ++i) {
                cum += s.hist.counts[i];
                const std::string le =
                    i < s.hist.bounds.size()
                        ? formatDouble(s.hist.bounds[i])
                        : std::string("+Inf");
                os << name << "_bucket"
                   << labelSignatureWith(s.labels, "le", le) << " " << cum
                   << "\n";
            }
            os << name << "_sum" << serKv.first << " "
               << formatDouble(s.hist.sum) << "\n";
            os << name << "_count" << serKv.first << " " << s.hist.count
               << "\n";
        }
    }
    return os.str();
}

namespace {

std::string
jsonEscapeStr(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    os << "{\"schema_version\":" << kResultSchemaVersion << ",\"metrics\":[";
    bool firstFam = true;
    for (const auto &famKv : families_) {
        if (!firstFam)
            os << ",";
        firstFam = false;
        const Family &fam = famKv.second;
        os << "{\"name\":\"" << jsonEscapeStr(famKv.first) << "\",\"type\":\""
           << kindName(fam.kind) << "\",\"help\":\""
           << jsonEscapeStr(fam.help) << "\",\"series\":[";
        bool firstSer = true;
        for (const auto &serKv : fam.series) {
            if (!firstSer)
                os << ",";
            firstSer = false;
            const Series &s = serKv.second;
            os << "{\"labels\":{";
            bool firstLab = true;
            for (const auto &kv : s.labels) {
                if (!firstLab)
                    os << ",";
                firstLab = false;
                os << "\"" << jsonEscapeStr(kv.first) << "\":\""
                   << jsonEscapeStr(kv.second) << "\"";
            }
            os << "}";
            if (fam.kind == Kind::Histogram) {
                os << ",\"buckets\":[";
                for (std::size_t i = 0; i < s.hist.counts.size(); ++i) {
                    if (i)
                        os << ",";
                    const std::string le =
                        i < s.hist.bounds.size()
                            ? formatDouble(s.hist.bounds[i])
                            : std::string("+Inf");
                    os << "[\"" << le << "\"," << s.hist.counts[i] << "]";
                }
                os << "],\"sum\":" << formatDouble(s.hist.sum)
                   << ",\"count\":" << s.hist.count;
            } else {
                os << ",\"value\":" << formatDouble(s.value);
            }
            os << "}";
        }
        os << "]}";
    }
    os << "]}";
    return os.str();
}

void
MetricsRegistry::clear()
{
    families_.clear();
}

// ---------------------------------------------------------------------------
// Exposition lint

namespace {

struct SampleLine
{
    std::string name;
    std::map<std::string, std::string> labels;
    double value = 0.0;
};

/** Parse one sample line; append errors, return nullopt on failure. */
bool
parseSample(const std::string &line, std::size_t lineNo, SampleLine &out,
            std::vector<std::string> &errors)
{
    auto fail = [&](const std::string &msg) {
        errors.push_back("line " + std::to_string(lineNo) + ": " + msg);
        return false;
    };
    std::size_t i = 0;
    const std::size_t n = line.size();
    std::size_t nameEnd = i;
    while (nameEnd < n && line[nameEnd] != '{' && line[nameEnd] != ' ')
        ++nameEnd;
    out.name = line.substr(i, nameEnd - i);
    if (!MetricsRegistry::validMetricName(out.name))
        return fail("invalid metric name '" + out.name + "'");
    i = nameEnd;
    if (i < n && line[i] == '{') {
        ++i;
        while (i < n && line[i] != '}') {
            std::size_t eq = line.find('=', i);
            if (eq == std::string::npos)
                return fail("label without '='");
            const std::string lname = line.substr(i, eq - i);
            if (!MetricsRegistry::validLabelName(lname))
                return fail("invalid label name '" + lname + "'");
            i = eq + 1;
            if (i >= n || line[i] != '"')
                return fail("label value not quoted");
            ++i;
            std::string lvalue;
            bool closed = false;
            while (i < n) {
                char c = line[i];
                if (c == '\\') {
                    if (i + 1 >= n)
                        return fail("dangling escape in label value");
                    char e = line[i + 1];
                    if (e == '\\')
                        lvalue += '\\';
                    else if (e == '"')
                        lvalue += '"';
                    else if (e == 'n')
                        lvalue += '\n';
                    else
                        return fail("invalid escape '\\" +
                                    std::string(1, e) + "'");
                    i += 2;
                } else if (c == '"') {
                    ++i;
                    closed = true;
                    break;
                } else {
                    lvalue += c;
                    ++i;
                }
            }
            if (!closed)
                return fail("unterminated label value");
            if (out.labels.count(lname))
                return fail("duplicate label '" + lname + "'");
            out.labels[lname] = lvalue;
            if (i < n && line[i] == ',')
                ++i;
            else if (i < n && line[i] != '}')
                return fail("expected ',' or '}' in label set");
        }
        if (i >= n || line[i] != '}')
            return fail("unterminated label set");
        ++i;
    }
    if (i >= n || line[i] != ' ')
        return fail("missing value separator");
    while (i < n && line[i] == ' ')
        ++i;
    std::size_t valEnd = line.find(' ', i);
    const std::string val = line.substr(
        i, valEnd == std::string::npos ? std::string::npos : valEnd - i);
    if (val == "+Inf" || val == "-Inf" || val == "NaN") {
        out.value = val == "NaN"
                        ? std::nan("")
                        : (val[0] == '-'
                               ? -std::numeric_limits<double>::infinity()
                               : std::numeric_limits<double>::infinity());
    } else {
        char *end = nullptr;
        out.value = std::strtod(val.c_str(), &end);
        if (val.empty() || end != val.c_str() + val.size())
            return fail("unparseable sample value '" + val + "'");
    }
    // Anything after the value would be a timestamp; we never emit one,
    // but tolerate it if it parses as an integer.
    if (valEnd != std::string::npos) {
        const std::string ts = line.substr(valEnd + 1);
        for (char c : ts)
            if (!((c >= '0' && c <= '9') || c == '-'))
                return fail("trailing garbage after value");
    }
    return true;
}

} // namespace

std::vector<std::string>
promLint(const std::string &text)
{
    std::vector<std::string> errors;
    std::map<std::string, std::string> types;   // name -> declared type
    std::map<std::string, bool> sampledBefore;  // name -> sample seen
    // histogram base -> (labels-sans-le signature -> [(le, cum)])
    std::map<std::string,
             std::map<std::string, std::vector<std::pair<double, double>>>>
        buckets;
    std::map<std::string, std::map<std::string, double>> histCounts;

    std::istringstream is(text);
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        if (line[0] == '#') {
            std::istringstream ls(line);
            std::string hash, keyword, name;
            ls >> hash >> keyword >> name;
            if (keyword == "TYPE") {
                std::string type;
                ls >> type;
                if (!MetricsRegistry::validMetricName(name))
                    errors.push_back("line " + std::to_string(lineNo) +
                                     ": TYPE for invalid name '" + name +
                                     "'");
                if (type != "counter" && type != "gauge" &&
                    type != "histogram" && type != "summary" &&
                    type != "untyped")
                    errors.push_back("line " + std::to_string(lineNo) +
                                     ": unknown TYPE '" + type + "'");
                if (types.count(name))
                    errors.push_back("line " + std::to_string(lineNo) +
                                     ": duplicate TYPE for '" + name + "'");
                if (sampledBefore[name])
                    errors.push_back("line " + std::to_string(lineNo) +
                                     ": TYPE for '" + name +
                                     "' after its samples");
                types[name] = type;
            } else if (keyword == "HELP") {
                if (!MetricsRegistry::validMetricName(name))
                    errors.push_back("line " + std::to_string(lineNo) +
                                     ": HELP for invalid name '" + name +
                                     "'");
            }
            continue;
        }
        SampleLine s;
        if (!parseSample(line, lineNo, s, errors))
            continue;
        // Resolve the family name: _bucket/_sum/_count of a declared
        // histogram belong to the base family.
        std::string base = s.name;
        for (const char *suffix : {"_bucket", "_sum", "_count"}) {
            const std::string suf(suffix);
            if (base.size() > suf.size() &&
                base.compare(base.size() - suf.size(), suf.size(), suf) ==
                    0) {
                const std::string cand =
                    base.substr(0, base.size() - suf.size());
                if (types.count(cand) && types[cand] == "histogram") {
                    base = cand;
                    if (suf == "_bucket") {
                        auto le = s.labels.find("le");
                        if (le == s.labels.end()) {
                            errors.push_back(
                                "line " + std::to_string(lineNo) + ": " +
                                s.name + " sample without le label");
                        } else {
                            double bound;
                            if (le->second == "+Inf") {
                                bound =
                                    std::numeric_limits<double>::infinity();
                            } else {
                                char *end = nullptr;
                                bound = std::strtod(le->second.c_str(),
                                                    &end);
                                if (end !=
                                    le->second.c_str() + le->second.size())
                                    errors.push_back(
                                        "line " + std::to_string(lineNo) +
                                        ": unparseable le '" + le->second +
                                        "'");
                            }
                            std::string sig;
                            for (const auto &kv : s.labels) {
                                if (kv.first == "le")
                                    continue;
                                sig += kv.first + "=" + kv.second + ",";
                            }
                            buckets[base][sig].emplace_back(bound, s.value);
                        }
                    } else if (suf == "_count") {
                        std::string sig;
                        for (const auto &kv : s.labels)
                            sig += kv.first + "=" + kv.second + ",";
                        histCounts[base][sig] = s.value;
                    }
                }
                break;
            }
        }
        sampledBefore[base] = true;
        if (types.count(base) && types[base] == "histogram" &&
            base == s.name)
            errors.push_back("line " + std::to_string(lineNo) +
                             ": histogram '" + base +
                             "' sampled without _bucket/_sum/_count suffix");
    }
    // Histogram discipline: buckets cumulative, +Inf present and equal
    // to the series' _count.
    for (auto &famKv : buckets) {
        for (auto &serKv : famKv.second) {
            auto &bs = serKv.second;
            std::stable_sort(bs.begin(), bs.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            double prev = -1.0;
            bool sawInf = false;
            double infVal = 0.0;
            for (const auto &b : bs) {
                if (b.second + 1e-9 < prev)
                    errors.push_back("histogram '" + famKv.first +
                                     "'{" + serKv.first +
                                     "} buckets not cumulative");
                prev = b.second;
                if (std::isinf(b.first)) {
                    sawInf = true;
                    infVal = b.second;
                }
            }
            if (!sawInf) {
                errors.push_back("histogram '" + famKv.first + "'{" +
                                 serKv.first + "} missing +Inf bucket");
            } else {
                auto cnt = histCounts[famKv.first].find(serKv.first);
                if (cnt != histCounts[famKv.first].end() &&
                    cnt->second != infVal)
                    errors.push_back("histogram '" + famKv.first + "'{" +
                                     serKv.first +
                                     "} _count != +Inf bucket");
            }
        }
    }
    return errors;
}

// ---------------------------------------------------------------------------
// Population helpers

void
populateFromProfile(MetricsRegistry &reg, const CycleProfiler &profile)
{
    const char *helpCycles =
        "SM cycles attributed to exclusive work categories";
    for (std::uint32_t sm = 0; sm < profile.numSms(); ++sm) {
        const std::string smStr = std::to_string(sm);
        for (std::size_t c = 0; c < kCycleCatCount; ++c) {
            for (std::size_t t = 0; t < kProfRayTypeCount; ++t) {
                const std::uint64_t v = profile.cycles(
                    sm, static_cast<CycleCat>(c),
                    static_cast<ProfRayType>(t));
                if (v == 0)
                    continue;
                reg.addCounter(
                    "rtp_profile_cycles_total", helpCycles,
                    {{"sm", smStr},
                     {"category",
                      cycleCatName(static_cast<CycleCat>(c))},
                     {"ray_type",
                      profRayTypeName(static_cast<ProfRayType>(t))}},
                    static_cast<double>(v));
            }
        }
        const CycleProfiler::SmSlice &s = profile.slice(sm);
        const MetricLabels smLabel = {{"sm", smStr}};
        reg.addCounter("rtp_profile_l1_accesses_total",
                       "private L1 accesses by outcome",
                       {{"sm", smStr}, {"outcome", "hit"}},
                       static_cast<double>(s.l1Hits));
        reg.addCounter("rtp_profile_l1_accesses_total",
                       "private L1 accesses by outcome",
                       {{"sm", smStr}, {"outcome", "miss"}},
                       static_cast<double>(s.l1Misses));
        reg.addCounter("rtp_profile_pred_lookups_total",
                       "predictor table lookups", smLabel,
                       static_cast<double>(s.predLookups));
        reg.addCounter("rtp_profile_pred_hits_total",
                       "predictor table lookup hits", smLabel,
                       static_cast<double>(s.predHits));
        reg.addCounter("rtp_profile_repack_flushes_total",
                       "partial-warp collector flushes", smLabel,
                       static_cast<double>(s.repackFlushes));
    }
    // Per-category totals over all SMs and ray types: stable shape
    // (every category present, including zero) for dashboards.
    for (std::size_t c = 0; c < kCycleCatCount; ++c)
        reg.addCounter(
            "rtp_profile_category_cycles_total",
            "cycles per attribution category, summed over SMs",
            {{"category", cycleCatName(static_cast<CycleCat>(c))}},
            static_cast<double>(
                profile.totalFor(static_cast<CycleCat>(c))));
    reg.setGauge("rtp_profile_elapsed_cycles",
                 "elapsed simulated cycles (accumulated over runs)", {},
                 static_cast<double>(profile.elapsed()));
    reg.addCounter("rtp_profile_runs_total", "simulation runs profiled", {},
                   static_cast<double>(profile.runs()));
}

void
populateFromStats(MetricsRegistry &reg, const StatGroup &stats,
                  const MetricLabels &labels)
{
    for (const auto &kv : stats.counters())
        reg.addCounter("rtp_sim_" + MetricsRegistry::sanitizeName(kv.first) +
                           "_total",
                       "simulator counter " + kv.first, labels,
                       static_cast<double>(kv.second));
    for (const auto &kv : stats.scalars())
        reg.setGauge("rtp_sim_" + MetricsRegistry::sanitizeName(kv.first),
                     "simulator scalar " + kv.first, labels, kv.second.value);
    for (const auto &kv : stats.histograms()) {
        const Histogram &h = kv.second;
        // Convert the log2 buckets to Prometheus bounds 0, 1, 3, 7, ...
        // up to the highest non-empty bucket; the rest fold into +Inf.
        std::size_t top = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i)
            if (h.buckets()[i] != 0)
                top = i;
        HistogramData data;
        for (std::size_t i = 0; i <= top && i < 63; ++i)
            data.bounds.push_back(
                i == 0 ? 0.0
                       : static_cast<double>((std::uint64_t{1} << i) - 1));
        data.counts.assign(data.bounds.size() + 1, 0);
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
            const std::size_t slot =
                i < data.bounds.size() ? i : data.bounds.size();
            data.counts[slot] += h.buckets()[i];
        }
        data.sum = static_cast<double>(h.sum());
        data.count = h.count();
        reg.histogram("rtp_sim_" + MetricsRegistry::sanitizeName(kv.first),
                      "simulator histogram " + kv.first, labels, data.bounds)
            .merge(data);
    }
}

} // namespace rtp
