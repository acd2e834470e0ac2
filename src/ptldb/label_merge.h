#ifndef PTLDB_PTLDB_LABEL_MERGE_H_
#define PTLDB_PTLDB_LABEL_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/query_log.h"
#include "common/status.h"
#include "common/time_util.h"

namespace ptldb {

/// The Code 1 common-hub merge kernels behind the compiled query VM's
/// kMergeEa/Ld/Sd ops (compiled.cc), run over lout/lin heap rows decoded
/// into RowScratch spans, and the hub-group walk they share with the
/// bucket scans.

/// One stop's labels viewed as three parallel arrays sorted by
/// (hub, td).
struct LabelRowView {
  std::span<const int32_t> hubs;
  std::span<const int32_t> tds;
  std::span<const int32_t> tas;

  LabelRowView() = default;
  LabelRowView(std::span<const int32_t> h, std::span<const int32_t> d,
               std::span<const int32_t> a)
      : hubs(h), tds(d), tas(a) {}

  size_t size() const { return hubs.size(); }
};

/// First index in [lo, hi) with td >= t (group is Pareto: td ascending).
/// Stored td columns widen into the compute tier for the comparison, so a
/// query bound beyond the stored horizon needs no narrowing cast here.
inline size_t FirstNotBefore(const LabelRowView& v, size_t lo, size_t hi,
                             EventTime t) {
  auto& counters = ThisThreadQueryCounters();
  // analyzer: bounded(binary search: O(log n) over one Pareto group)
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++counters.label_comparisons;
    if (FromStoredTime(v.tds[mid]) >= t) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

/// Last index in [lo, hi) with ta <= t, or hi when none.
inline size_t LastNotAfter(const LabelRowView& v, size_t lo, size_t hi,
                           EventTime t) {
  auto& counters = ThisThreadQueryCounters();
  size_t l = lo;
  size_t h = hi;
  // analyzer: bounded(binary search: O(log n) over one Pareto group)
  while (l < h) {
    const size_t mid = l + (h - l) / 2;
    ++counters.label_comparisons;
    if (FromStoredTime(v.tas[mid]) <= t) {
      l = mid + 1;
    } else {
      h = mid;
    }
  }
  return l == lo ? hi : l - 1;
}

/// End of the hub group that starts at `i`: the first index in
/// [i, hubs.size()) whose hub differs from hubs[i]. Rows are sorted by
/// (hub, td), so a hub's tuples are one contiguous run.
inline size_t HubGroupEnd(std::span<const int32_t> hubs, size_t i) {
  const int32_t hub = hubs[i];
  // analyzer: bounded(one hub group; every caller checkpoints per group)
  while (i < hubs.size() && hubs[i] == hub) ++i;
  return i;
}

/// Runs `fn(a_lo, a_hi, b_lo, b_hi)` for every hub present in both rows.
/// Deadline checkpoint per merge step (see query_context.h): a served
/// query with an expired deadline unwinds here with kDeadlineExceeded,
/// like every other scan loop of a served query.
template <typename Fn>
Status MergeCommonHubs(const LabelRowView& a, const LabelRowView& b, Fn&& fn) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    const int32_t ha = a.hubs[i];
    const int32_t hb = b.hubs[j];
    if (ha < hb) {
      i = HubGroupEnd(a.hubs, i);
    } else if (hb < ha) {
      j = HubGroupEnd(b.hubs, j);
    } else {
      const size_t i2 = HubGroupEnd(a.hubs, i);
      const size_t j2 = HubGroupEnd(b.hubs, j);
      ++ThisThreadQueryCounters().hubs_merged;
      fn(i, i2, j, j2);
      i = i2;
      j = j2;
    }
  }
  return Status::Ok();
}

/// The three Code 1 answers over a pair of label views.
inline Result<EventTime> MergeV2vEa(const LabelRowView& outp,
                                    const LabelRowView& inp, EventTime t) {
  ScopedQueryPhase phase(QueryPhase::kMerge);
  EventTime best = EventTime::Infinity();
  PTLDB_RETURN_IF_ERROR(MergeCommonHubs(
      outp, inp,
      [&](size_t a_lo, size_t a_hi, size_t b_lo, size_t b_hi) {
        const size_t l1 = FirstNotBefore(outp, a_lo, a_hi, t);
        if (l1 == a_hi) return;
        const size_t l2 =
            FirstNotBefore(inp, b_lo, b_hi, FromStoredTime(outp.tas[l1]));
        if (l2 == b_hi) return;
        best = std::min(best, FromStoredTime(inp.tas[l2]));
      }));
  return best;
}

inline Result<EventTime> MergeV2vLd(const LabelRowView& outp,
                                    const LabelRowView& inp, EventTime t_end) {
  ScopedQueryPhase phase(QueryPhase::kMerge);
  EventTime best = EventTime::NegInfinity();
  PTLDB_RETURN_IF_ERROR(MergeCommonHubs(
      outp, inp,
      [&](size_t a_lo, size_t a_hi, size_t b_lo, size_t b_hi) {
        const size_t l2 = LastNotAfter(inp, b_lo, b_hi, t_end);
        if (l2 == b_hi) return;
        const size_t l1 =
            LastNotAfter(outp, a_lo, a_hi, FromStoredTime(inp.tds[l2]));
        if (l1 == a_hi) return;
        best = std::max(best, FromStoredTime(outp.tds[l1]));
      }));
  return best;
}

inline Result<Duration> MergeV2vSd(const LabelRowView& outp,
                                   const LabelRowView& inp, EventTime t,
                                   EventTime t_end) {
  ScopedQueryPhase phase(QueryPhase::kMerge);
  // Durations are typed 64-bit: ta - td can exceed INT32_MAX when a
  // timetable spans near-horizon timestamps (e.g. an arrival close to the
  // stored maximum reached from a departure below zero), and the int32
  // subtraction this fold once used was UB, not just a wrong answer. A
  // duration that still exceeds the stored horizon after the min-fold
  // saturates to Duration::Infinity() — indistinguishable from
  // "unreachable", which is the only honest stored-width answer.
  Duration best = Duration::Infinity();
  PTLDB_RETURN_IF_ERROR(MergeCommonHubs(
      outp, inp,
      [&](size_t a_lo, size_t a_hi, size_t b_lo, size_t b_hi) {
        size_t l2 = b_lo;
        // analyzer: bounded(one Pareto group; MergeCommonHubs checkpoints per hub)
        for (size_t l1 = FirstNotBefore(outp, a_lo, a_hi, t); l1 < a_hi;
             ++l1) {
          while (l2 < b_hi && inp.tds[l2] < outp.tas[l1]) ++l2;
          if (l2 == b_hi || FromStoredTime(inp.tas[l2]) > t_end) break;
          best = std::min(best, FromStoredTime(inp.tas[l2]) -
                                    FromStoredTime(outp.tds[l1]));
        }
      }));
  return std::min(best, Duration::Infinity());
}

}  // namespace ptldb

#endif  // PTLDB_PTLDB_LABEL_MERGE_H_
