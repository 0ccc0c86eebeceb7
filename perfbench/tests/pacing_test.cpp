#include "pacing.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(FixedRateSchedule, DueTimesFollowTheRateNotTheAnswers) {
  const auto due = fixed_rate_schedule(5, 4.0, 0.1);
  ASSERT_EQ(due.size(), 5u);
  EXPECT_DOUBLE_EQ(due[0], 0.1);
  EXPECT_DOUBLE_EQ(due[1], 0.35);
  EXPECT_DOUBLE_EQ(due[4], 1.1);
  EXPECT_TRUE(fixed_rate_schedule(0, 4.0).empty());
}

TEST(NearestRank, PicksTheRankedSample) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(nearest_rank(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank({}, 50.0), 0.0);
}

TEST(SupportedPercentile, NeedsTenSamplesBeyondIt) {
  std::vector<double> samples;
  for (int i = 999; i >= 0; --i) samples.push_back(i);
  // 1,000 samples: ten lie beyond p99.
  ASSERT_TRUE(supported_percentile(samples, 99.0).has_value());
  EXPECT_DOUBLE_EQ(*supported_percentile(samples, 99.0), 989.0);
  samples.pop_back();
  EXPECT_FALSE(supported_percentile(samples, 99.0).has_value());
  EXPECT_TRUE(supported_percentile(samples, 90.0).has_value());
}

TEST(SummarizeTail, ReportsTheHighestSupportedPercentile) {
  std::vector<double> samples(150, 1.0);
  samples.back() = 7.0;
  const TailSummary s = summarize_tail(samples);
  EXPECT_EQ(s.count, 150u);
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 90.0);

  const TailSummary tiny = summarize_tail({3.0, 1.0, 2.0});
  EXPECT_EQ(tiny.count, 3u);
  EXPECT_DOUBLE_EQ(tiny.p50, 2.0);
  EXPECT_DOUBLE_EQ(tiny.tail_percentile, 0.0);

  std::vector<double> many;
  for (int i = 0; i < 20000; ++i) many.push_back(i);
  EXPECT_DOUBLE_EQ(summarize_tail(many).tail_percentile, 99.9);
}

TEST(Lateness, CountsOnlyTimeBehindSchedule) {
  Lateness late;
  late.record(1.0, 0.9);    // early: not late
  late.record(1.0, 1.004);  // 4 ms late
  Lateness other;
  other.record(2.0, 2.5);
  late.merge(other);
  ASSERT_EQ(late.samples_ms().size(), 3u);
  EXPECT_DOUBLE_EQ(late.samples_ms()[0], 0.0);
  EXPECT_NEAR(late.samples_ms()[1], 4.0, 1e-9);
  EXPECT_NEAR(late.samples_ms()[2], 500.0, 1e-9);
}

TEST(Median, UsesTheUpperMiddleSample) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
}

}  // namespace
}  // namespace perfbench
