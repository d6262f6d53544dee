#include "bench_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, HundredSamplesSupportP90AndNoHigher) {
  EXPECT_EQ(HighestSupportedPercentile(100), 90);
  EXPECT_EQ(HighestSupportedPercentile(99), 89);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99);
  EXPECT_EQ(HighestSupportedPercentile(10), -1);
  EXPECT_EQ(HighestSupportedPercentile(0), -1);
}

TEST(PercentileRule, SupportedPercentileLeavesTenSamplesAbove) {
  for (size_t n = 11; n <= 400; ++n) {
    const int p = HighestSupportedPercentile(n);
    ASSERT_GE(p, 1) << n;
    const std::vector<double> samples = OneTo(n);
    const double at = NearestRankPercentile(samples, p);
    const auto above = std::count_if(samples.begin(), samples.end(),
                                     [&](double s) { return s > at; });
    EXPECT_GE(above, static_cast<long>(kMinTailSamples)) << n;
    // One percentile higher would leave fewer than ten above.
    if (p < 100) {
      const double next = NearestRankPercentile(samples, p + 1);
      const auto above_next = std::count_if(samples.begin(), samples.end(),
                                            [&](double s) { return s > next; });
      EXPECT_LT(above_next, static_cast<long>(kMinTailSamples)) << n;
    }
  }
}

TEST(PercentileRule, NearestRankOnUnsortedInput) {
  const std::vector<double> samples = {5, 1, 4, 2, 3};
  EXPECT_EQ(NearestRankPercentile(samples, 50), 3);
  EXPECT_EQ(NearestRankPercentile(samples, 100), 5);
  EXPECT_EQ(NearestRankPercentile(samples, 1), 1);
  EXPECT_EQ(NearestRankPercentile(OneTo(100), 90), 90);
}

TEST(PassRate, MedianOfPassRatesIgnoresOneSlowPass) {
  // Passes of 2 queries: [0,1] 2/s, (1,3] 1/s, (3,3.5] 4/s, then a partial.
  const std::vector<std::pair<double, bool>> done = {
      {0.5, true}, {1.0, true}, {2.0, true}, {3.0, true},
      {3.2, true}, {3.5, true}, {9.0, true}};
  EXPECT_DOUBLE_EQ(MedianPassRate(done, 2), 2.0);
  EXPECT_DOUBLE_EQ(MedianPassRate({{1.0, true}}, 2), 0.0);
}

TEST(PassRate, FailedQueriesTakeTimeButDoNotCount) {
  const std::vector<std::pair<double, bool>> done = {
      {2.0, false}, {1.0, true}, {4.0, true}, {3.0, true}};
  // Passes (0,2] with one success and (2,4] with two: 0.5/s and 1/s.
  EXPECT_DOUBLE_EQ(MedianPassRate(done, 2), 0.75);
}

TEST(SelfTime, LeafSpanKeepsItsWholeDuration) {
  const std::vector<TimedSpan> spans = {{"leaf", "", 0, -1, 10, 25}};
  EXPECT_EQ(SelfMicros(spans), (std::vector<int64_t>{15}));
}

TEST(SelfTime, NestedChildrenCountOnlyAgainstTheirDirectParent) {
  // query [0,100) > engine [10,90) > job [20,80)
  const std::vector<TimedSpan> spans = {{"query", "", 1, -1, 0, 100},
                                        {"engine", "", 1, 0, 10, 90},
                                        {"job", "", 1, 1, 20, 80}};
  EXPECT_EQ(SelfMicros(spans), (std::vector<int64_t>{20, 20, 60}));
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two parallel tasks [10,60) and [40,70) cover [10,70) of the phase.
  const std::vector<TimedSpan> spans = {{"phase", "", 1, -1, 0, 100},
                                        {"task", "", 1, 0, 10, 60},
                                        {"task", "", 1, 0, 40, 70},
                                        {"task", "", 1, 0, 45, 50}};
  const std::vector<int64_t> self = SelfMicros(spans);
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 50);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
}

TEST(SelfTime, ChildPastTheParentIsClipped) {
  const std::vector<TimedSpan> spans = {{"parent", "", 1, -1, 0, 50},
                                        {"child", "", 1, 0, 30, 80},
                                        {"early", "", 1, 0, -20, 5}};
  EXPECT_EQ(SelfMicros(spans)[0], 25);
}

TEST(SelfTime, CoveredMicrosMergesAdjacentAndDisjointIntervals) {
  EXPECT_EQ(CoveredMicros({{0, 10}, {10, 20}, {30, 35}}, 0, 100), 25);
  EXPECT_EQ(CoveredMicros({}, 0, 100), 0);
  EXPECT_EQ(CoveredMicros({{50, 40}}, 0, 100), 0);
}

TEST(MetricCheck, CompleteSetPasses) {
  const std::vector<MetricSpec> table = {{"qps", "1/s"}, {"setup_s", "s"}};
  EXPECT_EQ(CheckMetrics(table, {{"qps", 12.5}, {"setup_s", 4.2}}), "");
}

TEST(MetricCheck, MissingMetricFailsTheRun) {
  const std::vector<MetricSpec> table = {{"qps", "1/s"}, {"setup_s", "s"}};
  const std::string problems = CheckMetrics(table, {{"qps", 12.5}});
  EXPECT_NE(problems.find("missing metric setup_s"), std::string::npos);
}

TEST(MetricCheck, NonFiniteAndUnexpectedMetricsFail) {
  const std::vector<MetricSpec> table = {{"qps", "1/s"}};
  EXPECT_NE(CheckMetrics(table, {{"qps", std::nan("")}})
                .find("non-finite metric qps"),
            std::string::npos);
  EXPECT_NE(CheckMetrics(table, {{"qps", 1}, {"qsp", 1}})
                .find("unexpected metric qsp"),
            std::string::npos);
  EXPECT_NE(CheckMetrics(table,
                         {{"qps", std::numeric_limits<double>::infinity()}}),
            "");
}

TEST(ResultLine, CarriesEveryDigitInTableOrder) {
  const std::vector<MetricSpec> table = {{"qps", "1/s"}, {"setup_s", "s"}};
  EXPECT_EQ(ResultJson(true, 130, 0, table,
                       {{"setup_s", 0.8127}, {"qps", 13.0}}),
            "{\"correct\": true, \"attempted\": 130, \"failed\": 0, "
            "\"metrics\": {\"qps\": {\"value\": 13, \"unit\": \"1/s\"}, "
            "\"setup_s\": {\"value\": 0.81269999999999998, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
