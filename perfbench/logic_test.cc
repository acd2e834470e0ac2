// Tests of the benchmark driver's pure helpers (logic.h).
#include "logic.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<int> v = Iota(1000);  // 1..1000
  EXPECT_EQ(Percentile(v, 0.5), 500);
  EXPECT_EQ(Percentile(v, 0.99), 990);
  EXPECT_EQ(Percentile(v, 0.999), 999);
  EXPECT_EQ(Percentile(v, 1.0), 1000);
  EXPECT_EQ(Percentile(Iota(1), 0.99), 1);
  EXPECT_EQ(Percentile(std::vector<int>{}, 0.5), 0);
}

TEST(PercentileTest, SamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_EQ(SamplesBeyond(100, 0.5), 50u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(PercentileTest, TailIsHighestWithTenBeyond) {
  EXPECT_DOUBLE_EQ(TailPercentile(100000), 0.9999);
  EXPECT_DOUBLE_EQ(TailPercentile(99999), 0.999);
  EXPECT_DOUBLE_EQ(TailPercentile(10000), 0.999);
  EXPECT_DOUBLE_EQ(TailPercentile(9999), 0.99);
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 0.99);
  // One sample short of ten beyond p99: the tail falls back to p95.
  EXPECT_DOUBLE_EQ(TailPercentile(999), 0.95);
  EXPECT_DOUBLE_EQ(TailPercentile(20), 0.5);
  EXPECT_DOUBLE_EQ(TailPercentile(19), 0.0);
  // The guarantee itself, over a range of sizes.
  for (size_t n = 1; n < 30000; n += 37) {
    const double q = TailPercentile(n);
    if (q > 0) {
      EXPECT_GE(SamplesBeyond(n, q), 10u) << n;
    }
  }
}

TEST(MedianTest, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(ScheduleTest, DeterministicPerSeed) {
  const std::vector<int64_t> a = OpenLoopSchedule(7, 1000, 5);
  const std::vector<int64_t> b = OpenLoopSchedule(7, 1000, 5);
  const std::vector<int64_t> c = OpenLoopSchedule(8, 1000, 5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ScheduleTest, RateAndBounds) {
  const std::vector<int64_t> s = OpenLoopSchedule(3, 1000, 10);
  // Poisson count over 10 s at 1000/s: 10000 +- a few standard deviations.
  EXPECT_GT(s.size(), 9600u);
  EXPECT_LT(s.size(), 10400u);
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
  EXPECT_GE(s.front(), 0);
  EXPECT_LT(s.back(), 10'000'000'000);
  // A longer window extends the same arrival sequence.
  const std::vector<int64_t> longer = OpenLoopSchedule(3, 1000, 20);
  ASSERT_GT(longer.size(), s.size());
  EXPECT_TRUE(std::equal(s.begin(), s.end(), longer.begin()));
}

TEST(StalledFractionTest, HalfOpenIntervals) {
  const std::vector<int64_t> times = {0, 10, 20, 30, 40, 50, 60, 70, 80, 90};
  EXPECT_DOUBLE_EQ(StalledFraction(times, {}), 0);
  // [10, 30) holds 10 and 20 but not 30.
  EXPECT_DOUBLE_EQ(StalledFraction(times, {{10, 30}}), 0.2);
  // Unsorted input, and an empty interval.
  EXPECT_DOUBLE_EQ(StalledFraction(times, {{80, 100}, {35, 35}, {10, 30}}),
                   0.4);
  // Overlapping and nested intervals count each time once.
  EXPECT_DOUBLE_EQ(StalledFraction(times, {{0, 25}, {15, 45}, {20, 30}}),
                   0.5);
  // Everything, and nothing.
  EXPECT_DOUBLE_EQ(StalledFraction(times, {{-5, 1000}}), 1.0);
  EXPECT_DOUBLE_EQ(StalledFraction(times, {{91, 95}}), 0.0);
  EXPECT_DOUBLE_EQ(StalledFraction({}, {{0, 10}}), 0.0);
}

TEST(StalledFractionTest, MatchesBruteForce) {
  ptldb::Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int64_t> times;
    for (int i = 0; i < 50; ++i) {
      times.push_back(static_cast<int64_t>(rng.NextBelow(1000)));
    }
    std::sort(times.begin(), times.end());
    std::vector<Interval> ivs;
    for (int i = 0; i < 5; ++i) {
      const auto b = static_cast<int64_t>(rng.NextBelow(1000));
      ivs.push_back({b, b + static_cast<int64_t>(rng.NextBelow(200))});
    }
    size_t inside = 0;
    for (const int64_t t : times) {
      for (const Interval& iv : ivs) {
        if (t >= iv.begin && t < iv.end) {
          ++inside;
          break;
        }
      }
    }
    EXPECT_DOUBLE_EQ(StalledFraction(times, ivs),
                     static_cast<double>(inside) / 50.0)
        << trial;
  }
}

TEST(SliceTest, MediansOverSlices) {
  // Four 1000 ns slices from t = 100. Slice k holds 10 requests of
  // latency k+1 .. k+10, except slice 2, a contention burst of 100x.
  std::vector<Interval> reqs;
  for (int64_t k = 0; k < 4; ++k) {
    for (int64_t i = 1; i <= 10; ++i) {
      const int64_t end = 100 + k * 1000 + i * 50;
      const int64_t lat = (k + i) * (k == 2 ? 100 : 1);
      reqs.push_back({end - lat, end});
    }
  }
  reqs.push_back({0, 50});      // Completes before the first slice.
  reqs.push_back({0, 4100});    // Completes after the last slice.
  const SliceMedians m = MedianOverSlices(reqs, 100, 1000, 4);
  EXPECT_EQ(m.min_count, 10u);
  EXPECT_DOUBLE_EQ(m.per_second, 10 * 1e9 / 1000);
  // Slice p50s are 5, 6, 700, 8 and p99s 10, 11, 1200, 13: the burst
  // moves neither median.
  EXPECT_DOUBLE_EQ(m.p50, 7);
  EXPECT_DOUBLE_EQ(m.p99, 12);
  EXPECT_EQ(MedianOverSlices(reqs, 100, 1000, 0).min_count, 0u);
}

TEST(SliceTest, EmptySliceCounts) {
  const SliceMedians m = MedianOverSlices({{0, 10}, {0, 20}}, 0, 100, 3);
  EXPECT_EQ(m.min_count, 0u);
  EXPECT_DOUBLE_EQ(m.per_second, 0);
}

TEST(MetricNameTest, Validity) {
  for (const char* ok : {"p50_ms", "setup_s", "engine.pages.lout",
                         "ptldb.facade_us.v2v_ea", "phase.buffer_io_us",
                         "a-b", "9lives"}) {
    EXPECT_TRUE(ValidMetricName(ok)) << ok;
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "slash/x", "quote\"", "pct%"}) {
    EXPECT_FALSE(ValidMetricName(bad)) << bad;
  }
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

}  // namespace
}  // namespace perfbench
