#include "ptldb/tables.h"

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>

#include "common/thread_pool.h"
#include "common/time_util.h"

namespace ptldb {

namespace {

// One L_in tuple of a target, flattened for grouping.
struct TargetTuple {
  int32_t hub = 0;
  EventTime td;
  EventTime ta;
  int32_t v = 0;
};

Schema LabelSchema() {
  return Schema{{"v", ColumnType::kInt32},
                {"hubs", ColumnType::kInt32Array},
                {"tds", ColumnType::kInt32Array},
                {"tas", ColumnType::kInt32Array}};
}

Schema NaiveSchema() {
  return Schema{{"hub", ColumnType::kInt32},
                {"td", ColumnType::kInt32},
                {"vs", ColumnType::kInt32Array},
                {"tas", ColumnType::kInt32Array}};
}

Schema HourBucketSchema(const char* hour_column, const char* condensed_time) {
  return Schema{{"hub", ColumnType::kInt32},
                {hour_column, ColumnType::kInt32},
                {"vs", ColumnType::kInt32Array},
                {condensed_time, ColumnType::kInt32Array},
                {"tds_exp", ColumnType::kInt32Array},
                {"vs_exp", ColumnType::kInt32Array},
                {"tas_exp", ColumnType::kInt32Array}};
}

Status LoadLabelTable(const LabelSet& labels, const std::string& name,
                      EngineDatabase* db) {
  auto table = db->CreateTable(name, LabelSchema());
  if (!table.ok()) return table.status();
  std::vector<std::pair<IndexKey, Row>> rows;
  rows.reserve(labels.num_stops());
  for (StopId v = 0; v < labels.num_stops(); ++v) {
    const auto tuples = labels.tuples(v);
    std::vector<int32_t> hubs;
    std::vector<int32_t> tds;
    std::vector<int32_t> tas;
    hubs.reserve(tuples.size());
    tds.reserve(tuples.size());
    tas.reserve(tuples.size());
    for (const LabelTuple& t : tuples) {
      hubs.push_back(static_cast<int32_t>(t.hub));
      tds.push_back(ToStoredTime(t.td));
      tas.push_back(ToStoredTime(t.ta));
    }
    rows.emplace_back(static_cast<IndexKey>(v),
                      Row{Value(static_cast<int32_t>(v)),
                          Value(std::move(hubs)), Value(std::move(tds)),
                          Value(std::move(tas))});
  }
  return (*table)->BulkLoad(std::move(rows));
}

// Distinct-target best list: (time, v) pairs sorted ascending (EA) or the
// td-descending variant (LD), truncated to k (0 = keep all).
std::vector<std::pair<EventTime, int32_t>> TopEntries(
    const std::map<int32_t, EventTime>& best, bool ascending, uint32_t k) {
  std::vector<std::pair<EventTime, int32_t>> entries;
  entries.reserve(best.size());
  for (const auto& [v, time] : best) entries.emplace_back(time, v);
  if (ascending) {
    std::sort(entries.begin(), entries.end());
  } else {
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
  }
  if (k != 0 && entries.size() > k) entries.resize(k);
  return entries;
}

using TableRows = std::vector<std::pair<IndexKey, Row>>;

// knn_naive rows of one hub group: one per distinct (hub, td), holding the
// k best distinct targets by earliest arrival.
TableRows BuildNaiveRows(std::span<const TargetTuple> by_td, int32_t hub,
                         uint32_t kmax) {
  TableRows rows;
  size_t i = 0;
  while (i < by_td.size()) {
    size_t j = i;
    while (j < by_td.size() && by_td[j].td == by_td[i].td) ++j;
    // Per distinct target keep its earliest arrival within the group.
    std::map<int32_t, EventTime> best;
    for (size_t k = i; k < j; ++k) {
      const auto [it, inserted] = best.emplace(by_td[k].v, by_td[k].ta);
      if (!inserted) it->second = std::min(it->second, by_td[k].ta);
    }
    const auto top = TopEntries(best, /*ascending=*/true, kmax);
    std::vector<int32_t> vs;
    std::vector<int32_t> tas;
    for (const auto& [ta, v] : top) {
      vs.push_back(v);
      tas.push_back(ToStoredTime(ta));
    }
    rows.emplace_back(MakeCompositeKey(hub, ToStoredTime(by_td[i].td)),
                      Row{Value(hub), Value(ToStoredTime(by_td[i].td)),
                          Value(std::move(vs)), Value(std::move(tas))});
    i = j;
  }
  return rows;
}

// Rows of one EA/LD bucket-table pair for one hub group.
struct BucketRows {
  TableRows ea;
  TableRows ld;
};

BucketRows BuildBucketRows(std::span<const TargetTuple> by_td, int32_t hub,
                           const BucketRange& hours, uint32_t k,
                           Duration bucket_seconds) {
  BucketRows rows;

  // ---- EA hour buckets. ----
  {
    const int32_t max_hour = CheckedBucketOf(by_td.back().td, bucket_seconds);
    // Condensed entries per hour, computed high-to-low by sweeping the
    // td-sorted group from the back.
    std::map<int32_t, EventTime> best;  // target -> earliest arrival.
    std::map<int32_t, std::vector<std::pair<EventTime, int32_t>>> cond;
    size_t cursor = by_td.size();
    for (int32_t hour = max_hour; hour >= hours.min_bucket; --hour) {
      // Bucket-edge ownership: hour h owns expanded tds in
      // [h*bs, (h+1)*bs) and condenses everything with td >= (h+1)*bs.
      // A tuple departing exactly at h*bs therefore lands in h's
      // *expanded* list (td == lo is inside [lo, hi)) and in the
      // *condensed* list of every hour < h — the >= below is what makes
      // a td exactly on the (h+1)*bs edge condensed for h instead of
      // double-counted in h's expanded range. Queries with t exactly on
      // an edge rely on this split: Code 3's condensed branch
      // needs no ta<->td feasibility filter precisely because every
      // condensed td >= (hour+1)*bs > any expanded/queried time in hour.
      // Typed 64-bit edge: at hour == max_hour == td_max/bs the edge
      // (hour+1)*bs can exceed the stored horizon (labels at the top of
      // the service day); the int32 product this sweep once used would
      // wrap negative and condense the whole group.
      const EventTime boundary =
          BucketStart(static_cast<int64_t>(hour) + 1, bucket_seconds);
      while (cursor > 0 && by_td[cursor - 1].td >= boundary) {
        const TargetTuple& t = by_td[cursor - 1];
        const auto [it, inserted] = best.emplace(t.v, t.ta);
        if (!inserted) it->second = std::min(it->second, t.ta);
        --cursor;
      }
      cond[hour] = TopEntries(best, true, k);
    }
    // Emit rows in ascending hour order.
    size_t exp_cursor = 0;
    for (int32_t hour = hours.min_bucket; hour <= max_hour; ++hour) {
      // Both edges are exact in the typed tier; the upper edge is the
      // same top-of-range wrap hazard as the condensing sweep above.
      const EventTime lo = BucketStart(hour, bucket_seconds);
      const EventTime hi =
          BucketStart(static_cast<int64_t>(hour) + 1, bucket_seconds);
      while (exp_cursor < by_td.size() && by_td[exp_cursor].td < lo) {
        ++exp_cursor;
      }
      std::vector<int32_t> tds_exp;
      std::vector<int32_t> vs_exp;
      std::vector<int32_t> tas_exp;
      for (size_t j = exp_cursor; j < by_td.size() && by_td[j].td < hi; ++j) {
        tds_exp.push_back(ToStoredTime(by_td[j].td));
        vs_exp.push_back(by_td[j].v);
        tas_exp.push_back(ToStoredTime(by_td[j].ta));
      }
      std::vector<int32_t> vs;
      std::vector<int32_t> tas;
      for (const auto& [ta, v] : cond[hour]) {
        vs.push_back(v);
        tas.push_back(ToStoredTime(ta));
      }
      rows.ea.emplace_back(
          MakeCompositeKey(hub, hour),
          Row{Value(hub), Value(hour), Value(std::move(vs)),
              Value(std::move(tas)), Value(std::move(tds_exp)),
              Value(std::move(vs_exp)), Value(std::move(tas_exp))});
    }
  }

  // ---- LD hour buckets. ----
  {
    std::vector<TargetTuple> by_ta(by_td.begin(), by_td.end());
    std::sort(by_ta.begin(), by_ta.end(),
              [](const TargetTuple& a, const TargetTuple& b) {
                return std::tie(a.ta, a.td, a.v) < std::tie(b.ta, b.td, b.v);
              });
    const int32_t min_hour = CheckedBucketOf(by_ta.front().ta, bucket_seconds);
    std::map<int32_t, EventTime> best;  // target -> latest departure.
    size_t cursor = 0;
    for (int32_t hour = min_hour; hour <= hours.max_bucket; ++hour) {
      // Both edges are exact in the typed tier.
      const EventTime lo = BucketStart(hour, bucket_seconds);
      const EventTime hi =
          BucketStart(static_cast<int64_t>(hour) + 1, bucket_seconds);
      // Condensed: tuples arriving *strictly* before this hour — ta < lo,
      // so a tuple arriving exactly at h*bs stays in h's expanded range
      // [lo, hi) and is condensed only for hours > h. The strictness is
      // load-bearing at edges: Code 4's condensed branch filters
      // only td2 >= ta1 (not ta2 <= t), which is sound because every
      // condensed ta < hour*bs <= t for any t in this hour — an
      // inclusive sweep here would smuggle ta == lo tuples past that
      // argument when t == lo exactly.
      while (cursor < by_ta.size() && by_ta[cursor].ta < lo) {
        const TargetTuple& t = by_ta[cursor];
        const auto [it, inserted] = best.emplace(t.v, t.td);
        if (!inserted) it->second = std::max(it->second, t.td);
        ++cursor;
      }
      // Expanded: tuples arriving within [lo, hi), ordered by td.
      std::vector<TargetTuple> exp;
      for (size_t j = cursor; j < by_ta.size() && by_ta[j].ta < hi; ++j) {
        exp.push_back(by_ta[j]);
      }
      std::sort(exp.begin(), exp.end(),
                [](const TargetTuple& a, const TargetTuple& b) {
                  return std::tie(a.td, a.ta, a.v) < std::tie(b.td, b.ta, b.v);
                });
      std::vector<int32_t> tds_exp;
      std::vector<int32_t> vs_exp;
      std::vector<int32_t> tas_exp;
      for (const TargetTuple& t : exp) {
        tds_exp.push_back(ToStoredTime(t.td));
        vs_exp.push_back(t.v);
        tas_exp.push_back(ToStoredTime(t.ta));
      }
      std::vector<int32_t> vs;
      std::vector<int32_t> tds;
      for (const auto& [td, v] : TopEntries(best, false, k)) {
        vs.push_back(v);
        tds.push_back(ToStoredTime(td));
      }
      rows.ld.emplace_back(
          MakeCompositeKey(hub, hour),
          Row{Value(hub), Value(hour), Value(std::move(vs)),
              Value(std::move(tds)), Value(std::move(tds_exp)),
              Value(std::move(vs_exp)), Value(std::move(tas_exp))});
    }
  }

  return rows;
}

void AppendRows(TableRows* dst, TableRows* src) {
  dst->insert(dst->end(), std::make_move_iterator(src->begin()),
              std::make_move_iterator(src->end()));
}

Status CheckTargets(const TtlIndex& index,
                    const std::vector<StopId>& targets) {
  for (const StopId t : targets) {
    if (t >= index.num_stops()) {
      return Status::InvalidArgument("target out of range");
    }
  }
  return Status::Ok();
}

// The targets' L_in tuples sorted by (hub, td, ta, v), cut into one
// [begin, end) range per hub.
struct HubGroups {
  std::vector<TargetTuple> tuples;
  std::vector<std::pair<size_t, size_t>> bounds;

  size_t size() const { return bounds.size(); }
  std::span<const TargetTuple> group(size_t g) const {
    return {tuples.data() + bounds[g].first, tuples.data() + bounds[g].second};
  }
};

HubGroups GroupTargetTuples(const TtlIndex& index,
                            const std::vector<StopId>& targets) {
  // Set semantics: a duplicated target must not contribute its tuples
  // twice (the per-hour condensed lists would still dedup by target, but
  // the naive and expanded arrays would carry duplicate entries into
  // query answers). The facade canonicalizes too; dedup here as well so
  // direct callers (SQL writer tests, benchmarks) get the same tables.
  std::vector<StopId> uniq_targets = targets;
  std::sort(uniq_targets.begin(), uniq_targets.end());
  uniq_targets.erase(std::unique(uniq_targets.begin(), uniq_targets.end()),
                     uniq_targets.end());

  HubGroups out;
  for (const StopId target : uniq_targets) {
    for (const LabelTuple& t : index.in.tuples(target)) {
      out.tuples.push_back({static_cast<int32_t>(t.hub), t.td, t.ta,
                            static_cast<int32_t>(target)});
    }
  }
  std::sort(out.tuples.begin(), out.tuples.end(),
            [](const TargetTuple& a, const TargetTuple& b) {
              return std::tie(a.hub, a.td, a.ta, a.v) <
                     std::tie(b.hub, b.td, b.ta, b.v);
            });
  size_t begin = 0;
  while (begin < out.tuples.size()) {
    size_t end = begin;
    while (end < out.tuples.size() &&
           out.tuples[end].hub == out.tuples[begin].hub) {
      ++end;
    }
    out.bounds.emplace_back(begin, end);
    begin = end;
  }
  return out;
}

// Runs `build` once per hub group. Each group's rows depend only on its
// own tuples, so groups build in parallel into disjoint slots (when
// num_threads != 1); concatenating the slots in group (= hub) order makes
// the loaded tables independent of the thread count.
template <typename Rows, typename Fn>
std::vector<Rows> BuildPerGroup(const HubGroups& groups, uint32_t num_threads,
                                EngineDatabase* db, Fn build) {
  std::vector<Rows> per_group(groups.size());
  if (num_threads != 1 && groups.size() > 1) {
    ThreadPool pool(num_threads);
    pool.ParallelFor(groups.size(), [&](uint32_t, uint64_t g) {
      per_group[g] = build(groups.group(g));
    });
    MetricsRegistry* m = db->metrics();
    m->counter("threadpool.tasks_executed")->Add(pool.executed());
    m->counter("threadpool.tasks_stolen")->Add(pool.stolen());
    m->gauge("threadpool.max_queue_depth")
        ->Max(static_cast<int64_t>(pool.max_pending()));
  } else {
    for (size_t g = 0; g < groups.size(); ++g) {
      per_group[g] = build(groups.group(g));
    }
  }
  return per_group;
}

}  // namespace

Status BuildLabelTables(const TtlIndex& index, EngineDatabase* db) {
  PTLDB_RETURN_IF_ERROR(LoadLabelTable(index.out, kLoutTable, db));
  return LoadLabelTable(index.in, kLinTable, db);
}

Result<const EngineTable*> RequireTable(EngineDatabase* db,
                                        const std::string& name) {
  const EngineTable* table = db->FindTable(name);
  if (table == nullptr) {
    return Status::InvalidArgument("table not built: " + name);
  }
  return table;
}

std::string NaiveKnnTableName(const std::string& s) { return "knn_naive_" + s; }
std::string KnnEaTableName(const std::string& s) { return "knn_ea_" + s; }
std::string KnnLdTableName(const std::string& s) { return "knn_ld_" + s; }
std::string OtmEaTableName(const std::string& s) { return "otm_ea_" + s; }
std::string OtmLdTableName(const std::string& s) { return "otm_ld_" + s; }

BucketRange ComputeBucketRange(const TtlIndex& index,
                               Duration bucket_seconds) {
  BucketRange range{std::numeric_limits<int32_t>::max(), 0};
  bool any = false;
  for (StopId v = 0; v < index.num_stops(); ++v) {
    for (const auto* set : {&index.out, &index.in}) {
      for (const LabelTuple& t : set->tuples(v)) {
        range.min_bucket =
            std::min(range.min_bucket, CheckedBucketOf(t.td, bucket_seconds));
        range.max_bucket =
            std::max(range.max_bucket, CheckedBucketOf(t.ta, bucket_seconds));
        any = true;
      }
    }
  }
  if (!any) range = {0, 0};
  return range;
}

Status BuildBucketTables(const TtlIndex& index,
                         const std::vector<StopId>& targets, uint32_t k,
                         const std::string& ea_table,
                         const std::string& ld_table, EngineDatabase* db,
                         Duration bucket_seconds, uint32_t num_threads) {
  PTLDB_RETURN_IF_ERROR(CheckTargets(index, targets));
  if (bucket_seconds <= Duration::Zero()) {
    return Status::InvalidArgument("bucket width must be positive");
  }
  auto ea = db->CreateTable(ea_table, HourBucketSchema("dephour", "tas"), 2);
  PTLDB_RETURN_IF_ERROR(ea.status());
  auto ld = db->CreateTable(ld_table, HourBucketSchema("arrhour", "tds"), 2);
  PTLDB_RETURN_IF_ERROR(ld.status());

  const HubGroups groups = GroupTargetTuples(index, targets);
  const BucketRange hours = ComputeBucketRange(index, bucket_seconds);
  std::vector<BucketRows> per_group = BuildPerGroup<BucketRows>(
      groups, num_threads, db, [&](std::span<const TargetTuple> by_td) {
        return BuildBucketRows(by_td, by_td.front().hub, hours, k,
                               bucket_seconds);
      });
  BucketRows all;
  for (BucketRows& rows : per_group) {
    AppendRows(&all.ea, &rows.ea);
    AppendRows(&all.ld, &rows.ld);
  }
  PTLDB_RETURN_IF_ERROR((*ea)->BulkLoad(std::move(all.ea)));
  return (*ld)->BulkLoad(std::move(all.ld));
}

Status BuildNaiveKnnTable(const TtlIndex& index,
                          const std::vector<StopId>& targets, uint32_t kmax,
                          const std::string& set_name, EngineDatabase* db,
                          uint32_t num_threads) {
  if (kmax == 0) return Status::InvalidArgument("kmax must be positive");
  PTLDB_RETURN_IF_ERROR(CheckTargets(index, targets));
  auto table = db->CreateTable(NaiveKnnTableName(set_name), NaiveSchema(), 2);
  PTLDB_RETURN_IF_ERROR(table.status());
  const HubGroups groups = GroupTargetTuples(index, targets);
  std::vector<TableRows> per_group = BuildPerGroup<TableRows>(
      groups, num_threads, db, [&](std::span<const TargetTuple> by_td) {
        return BuildNaiveRows(by_td, by_td.front().hub, kmax);
      });
  TableRows all;
  for (TableRows& rows : per_group) AppendRows(&all, &rows);
  return (*table)->BulkLoad(std::move(all));
}

}  // namespace ptldb
