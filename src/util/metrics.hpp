/**
 * @file
 * Unified metrics registry with Prometheus text exposition.
 *
 * Every observability surface the repo has grown — the per-cycle
 * attribution profiler (util/profile.hpp), the StatGroup counter
 * registry (util/stats.hpp) — feeds one MetricsRegistry of labelled
 * counters, gauges, and histograms, which renders to the Prometheus
 * text exposition format (the lingua franca a production deployment
 * would scrape) and to a schema-stamped JSON sink.
 *
 * Determinism contract: family names and label signatures are kept in
 * sorted maps and labels are sorted by name at insert, so two
 * registries populated with the same values render byte-identical text
 * regardless of insertion order — the same property every other JSON
 * emitter in the repo guarantees.
 *
 * promLint() validates an exposition document (line grammar, TYPE
 * discipline, histogram bucket monotonicity); it backs the
 * `cycles_report --lint` CI smoke and the unit tests.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rtp {

class CycleProfiler;
class StatGroup;

/** Label set: (name, value) pairs; sorted by name when registered. */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/**
 * Fixed-bound histogram accumulator (Prometheus bucket semantics):
 * bucket i counts observations <= bounds[i] and greater than
 * bounds[i-1]; one extra +Inf bucket catches the overflow. This is the
 * registry's histogram series payload; the stats bridge copies
 * StatGroup histograms into it.
 */
struct HistogramData
{
    std::vector<double> bounds;        //!< ascending upper bounds
    std::vector<std::uint64_t> counts; //!< bounds.size() + 1 (+Inf last)
    double sum = 0.0;
    std::uint64_t count = 0;

    HistogramData() = default;
    explicit HistogramData(std::vector<double> upperBounds);

    /** Record one observation. */
    void observe(double value);

    /** Bucket-wise add (bounds must match). */
    void merge(const HistogramData &other);
};

/** Registry of labelled metric families. */
class MetricsRegistry
{
public:
    enum class Kind : std::uint8_t
    {
        Counter,
        Gauge,
        Histogram,
    };

    /** One labelled series inside a family. */
    struct Series
    {
        MetricLabels labels; //!< sorted by label name
        double value = 0.0;  //!< counter/gauge payload
        HistogramData hist;  //!< histogram payload
    };

    /** One metric family: a kind, a help string, and its series. */
    struct Family
    {
        Kind kind = Kind::Counter;
        std::string help;
        //!< keyed by the rendered label signature (deterministic order)
        std::map<std::string, Series> series;
    };

    /**
     * Add @p value to the counter (@p name, @p labels), creating the
     * family/series on first use. Throws std::logic_error on a kind
     * clash or an invalid metric/label name.
     */
    void addCounter(const std::string &name, const std::string &help,
                    const MetricLabels &labels, double value);

    /** Set the gauge (@p name, @p labels) to @p value. */
    void setGauge(const std::string &name, const std::string &help,
                  const MetricLabels &labels, double value);

    /**
     * Find-or-create the histogram series (@p name, @p labels) with
     * @p bounds and return its accumulator for observe()/merge.
     */
    HistogramData &histogram(const std::string &name, const std::string &help,
                             const MetricLabels &labels,
                             const std::vector<double> &bounds);

    /** @return All families, keyed by name (sorted). */
    const std::map<std::string, Family> &
    families() const
    {
        return families_;
    }

    /** Render the Prometheus text exposition document. */
    std::string renderProm() const;

    /** Serialise as JSON with a schema_version stamp. */
    std::string toJson() const;

    /** Remove every family. */
    void clear();

    /** @return true when @p name matches [a-zA-Z_:][a-zA-Z0-9_:]*. */
    static bool validMetricName(const std::string &name);

    /** @return true when @p name matches [a-zA-Z_][a-zA-Z0-9_]*. */
    static bool validLabelName(const std::string &name);

    /** Escape a label value (backslash, double quote, newline). */
    static std::string escapeLabelValue(const std::string &value);

    /** Escape a HELP text (backslash, newline). */
    static std::string escapeHelp(const std::string &help);

    /** Replace characters invalid in a metric name with '_'. */
    static std::string sanitizeName(const std::string &name);

private:
    std::map<std::string, Family> families_;

    Series &upsert(const std::string &name, const std::string &help,
                   Kind kind, const MetricLabels &labels);
};

/**
 * Validate a Prometheus text exposition document. Returns one message
 * per violation (empty = clean): sample-line grammar, metric/label
 * name syntax, TYPE declared once and before samples, histogram
 * buckets cumulative with a closing +Inf equal to _count.
 */
std::vector<std::string> promLint(const std::string &text);

/**
 * Export the profiler's attribution table into @p reg:
 * rtp_profile_cycles_total{sm,category,ray_type} (non-zero cells),
 * per-category totals, elapsed/runs, and the unit meta tallies.
 */
void populateFromProfile(MetricsRegistry &reg, const CycleProfiler &profile);

/**
 * Export a StatGroup into @p reg: counters become
 * rtp_sim_<name>_total, scalars rtp_sim_<name> gauges, log2
 * histograms rtp_sim_<name> histograms with power-of-two bounds.
 * @p labels is attached to every series (e.g. {{"scene","SB"}}).
 */
void populateFromStats(MetricsRegistry &reg, const StatGroup &stats,
                       const MetricLabels &labels = {});

} // namespace rtp
