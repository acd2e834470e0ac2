// Pure helpers of the benchmark driver: percentile selection, the
// open-loop arrival schedule, stall-window and time-slice arithmetic and
// metric-name validity. Kept free of any database state so logic_test.cc can pin them.
#ifndef PERFBENCH_LOGIC_H_
#define PERFBENCH_LOGIC_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace perfbench {

/// Nearest-rank percentile (q in (0, 1]) of ascending `sorted`: the
/// smallest sample with at least q of all samples at or below it.
template <typename T>
T Percentile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return T{};
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/// Samples strictly above the nearest-rank q-percentile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<size_t>(rank, 1));
}

/// The highest percentile of the ladder {99.99, 99.9, 99, 95, 90, 50} that
/// still has at least `min_beyond` samples beyond it among n samples, as a
/// fraction (0.999, ...); 0 when even the median does not qualify. A tail
/// figure with fewer samples beyond it is one or two outliers, not a tail.
inline double TailPercentile(size_t n, size_t min_beyond = 10) {
  for (const double q : {0.9999, 0.999, 0.99, 0.95, 0.90, 0.50}) {
    if (SamplesBeyond(n, q) >= min_beyond) return q;
  }
  return 0;
}

/// Median of `values` (mean of the middle two for an even count).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t m = values.size() / 2;
  return values.size() % 2 == 1 ? values[m] : (values[m - 1] + values[m]) / 2;
}

/// Open-loop arrival offsets in ns from the window start: a Poisson process
/// of `rate` arrivals per second (independent users), truncated at
/// `seconds`. Deterministic per seed.
inline std::vector<int64_t> OpenLoopSchedule(uint64_t seed, double rate,
                                             double seconds) {
  ptldb::Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
  const double horizon_ns = seconds * 1e9;
  double t = 0;
  for (;;) {
    // Exponential gap; 1 - u keeps log() away from 0.
    t += -std::log(1.0 - rng.NextDouble()) / rate * 1e9;
    if (t >= horizon_ns) break;
    out.push_back(static_cast<int64_t>(t));
  }
  return out;
}

/// A half-open time interval [begin, end) in ns.
struct Interval {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Share of the ascending `times` that fall inside any of `intervals`
/// (which may arrive unsorted and may overlap). 0 for no times.
inline double StalledFraction(const std::vector<int64_t>& times,
                              std::vector<Interval> intervals) {
  if (times.empty()) return 0;
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  size_t inside = 0;
  int64_t covered_to = INT64_MIN;  // End of the union seen so far.
  size_t t = 0;
  for (const Interval& iv : intervals) {
    const int64_t begin = std::max(iv.begin, covered_to);
    if (iv.end <= begin) continue;
    t = static_cast<size_t>(
        std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(t),
                         times.end(), begin) -
        times.begin());
    const auto stop = static_cast<size_t>(
        std::lower_bound(times.begin() + static_cast<std::ptrdiff_t>(t),
                         times.end(), iv.end) -
        times.begin());
    inside += stop - t;
    t = stop;
    covered_to = iv.end;
  }
  return static_cast<double>(inside) / static_cast<double>(times.size());
}

/// Figures of a measured window, each the median over its time slices.
struct SliceMedians {
  double per_second = 0;  ///< Completions per second.
  double p50 = 0;         ///< Latency, ns.
  double p99 = 0;         ///< Latency, ns.
  size_t min_count = 0;  ///< Fewest completions in one slice.
};

/// Cuts [start, start + num_slices * width) into equal slices, puts each
/// request (send to completion) in the slice holding its completion, and
/// returns the median over the slices of each slice's completion rate, p50
/// and p99; requests completing outside the slices are left out. A burst of
/// host contention then moves a minority of slices, not the medians.
inline SliceMedians MedianOverSlices(const std::vector<Interval>& requests,
                                     int64_t start, int64_t width,
                                     size_t num_slices) {
  std::vector<std::vector<int64_t>> latencies(num_slices);
  for (const Interval& r : requests) {
    if (r.end < start) continue;
    const auto slice = static_cast<size_t>((r.end - start) / width);
    if (slice < num_slices) latencies[slice].push_back(r.end - r.begin);
  }
  SliceMedians out;
  if (num_slices == 0) return out;
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p99;
  out.min_count = SIZE_MAX;
  for (std::vector<int64_t>& v : latencies) {
    std::sort(v.begin(), v.end());
    out.min_count = std::min(out.min_count, v.size());
    rate.push_back(static_cast<double>(v.size()) * 1e9 /
                   static_cast<double>(width));
    p50.push_back(static_cast<double>(Percentile(v, 0.5)));
    p99.push_back(static_cast<double>(Percentile(v, 0.99)));
  }
  out.per_second = Median(rate);
  out.p50 = Median(p50);
  out.p99 = Median(p99);
  return out;
}

/// Metric names: 1-64 characters of letters, digits, '_', '.', '-',
/// starting with a letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

}  // namespace perfbench

#endif  // PERFBENCH_LOGIC_H_
