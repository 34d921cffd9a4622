/** @file Unit tests for the bench-JSON regression comparison rules
 *  (util/bench_compare.hpp) that back the tools/bench_diff cycle gate.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/bench_compare.hpp"
#include "util/json.hpp"

namespace rtp {
namespace {

JsonValue
parse(const std::string &text)
{
    std::string error;
    auto v = parseJson(text, &error);
    EXPECT_TRUE(v.has_value()) << error;
    return *v;
}

std::vector<BenchViolation>
diff(const std::string &base, const std::string &cur,
     const BenchDiffOptions &opts = {})
{
    JsonValue b = parse(base);
    JsonValue c = parse(cur);
    return compareBench(b, c, opts);
}

TEST(BenchCompare, IdenticalDocumentsPass)
{
    const char *doc = "{\"bench\":\"x\",\"results\":{\"A\":"
                      "{\"cycles\":1000,\"rays\":500}}}";
    EXPECT_TRUE(diff(doc, doc).empty());
}

TEST(BenchCompare, SmallDriftWithinRelTolPasses)
{
    auto v = diff("{\"results\":{\"A\":{\"cycles\":1000}}}",
                  "{\"results\":{\"A\":{\"cycles\":1015}}}"); // +1.5%
    EXPECT_TRUE(v.empty());
}

TEST(BenchCompare, TenPercentCycleRegressionIsCaught)
{
    // The acceptance scenario: a synthetic 10% cycle regression must
    // produce a violation under the default 2% tolerance.
    auto v = diff("{\"results\":{\"A\":{\"cycles\":1000}}}",
                  "{\"results\":{\"A\":{\"cycles\":1100}}}");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].path, "results.A.cycles");
    EXPECT_EQ(v[0].kind, "value");
    EXPECT_NEAR(v[0].relDelta, 0.1, 1e-9);
    EXPECT_FALSE(formatViolation(v[0]).empty());
}

TEST(BenchCompare, ImprovementBeyondTolAlsoFlagsDeterministicKeys)
{
    // Deterministic metrics gate symmetrically: a 10% "improvement"
    // means the workload changed and the baseline is stale.
    auto v = diff("{\"results\":{\"A\":{\"cycles\":1000}}}",
                  "{\"results\":{\"A\":{\"cycles\":900}}}");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NEAR(v[0].relDelta, -0.1, 1e-9);
}

TEST(BenchCompare, NearZeroBaselineUsesAbsoluteFloor)
{
    // max(|base|, 1) floor: 0 -> 0.02 is within 2% of the floor.
    EXPECT_TRUE(diff("{\"x\":0}", "{\"x\":0.01}").empty());
    EXPECT_FALSE(diff("{\"x\":0}", "{\"x\":0.5}").empty());
}

TEST(BenchCompare, TimingKeysAreAlwaysSkipped)
{
    auto v = diff("{\"wall_seconds\":0.1,\"serial_seconds\":0.5,"
                  "\"threads\":8,\"runs\":3,\"reps\":3}",
                  "{\"wall_seconds\":99.0,\"serial_seconds\":99.0,"
                  "\"threads\":1,\"runs\":1,\"reps\":1}");
    EXPECT_TRUE(v.empty());
    EXPECT_TRUE(isBenchTimingKey("wall_seconds"));
    EXPECT_TRUE(isBenchTimingKey("threads"));
    EXPECT_FALSE(isBenchTimingKey("cycles"));
}

TEST(BenchCompare, MissingBaselineKeyIsViolationExtraCurrentIsNot)
{
    auto missing = diff("{\"a\":1,\"b\":2}", "{\"a\":1}");
    ASSERT_EQ(missing.size(), 1u);
    EXPECT_EQ(missing[0].kind, "missing");
    EXPECT_EQ(missing[0].path, "b");

    auto extra = diff("{\"a\":1}", "{\"a\":1,\"new_counter\":7}");
    EXPECT_TRUE(extra.empty());
}

TEST(BenchCompare, HistogramsSkippedUnlessRequested)
{
    const char *base =
        "{\"cycles\":100,\"histograms\":{\"lat\":{\"p50\":10}}}";
    const char *cur =
        "{\"cycles\":100,\"histograms\":{\"lat\":{\"p50\":500}}}";
    EXPECT_TRUE(diff(base, cur).empty());
    BenchDiffOptions opts;
    opts.includeHistograms = true;
    auto v = diff(base, cur, opts);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].path, "histograms.lat.p50");
}

TEST(BenchCompare, TypeMismatchIsViolation)
{
    auto v = diff("{\"a\":1}", "{\"a\":\"one\"}");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].kind, "type");
}

TEST(BenchCompare, NestedPathsAreDotted)
{
    auto v = diff(
        "{\"results\":{\"SB/baseline\":{\"cycles\":85212}}}",
        "{\"results\":{\"SB/baseline\":{\"cycles\":95000}}}");
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].path, "results.SB/baseline.cycles");
}

TEST(BenchCompare, CustomRelTolWidensTheGate)
{
    BenchDiffOptions opts;
    opts.relTol = 0.15;
    auto v = diff("{\"cycles\":1000}", "{\"cycles\":1100}", opts);
    EXPECT_TRUE(v.empty());
}

} // namespace
} // namespace rtp
