#include "ptldb/queries.h"

#include <cassert>
#include <limits>

#include "common/metrics.h"
#include "common/query_context.h"
#include "engine/exec.h"
#include "ptldb/tables.h"

namespace ptldb {

namespace {

// n1 of Code 2: UNNEST the lout row of q into (hub, td, ta) rows. The
// caller has validated that lout exists.
OperatorPtr MakeN1(EngineDatabase* db, StopId q) {
  const EngineTable* lout = db->FindTable(kLoutTable);
  assert(lout != nullptr);
  return MakeUnnest(
      MakeIndexLookup(lout, static_cast<IndexKey>(q), db->buffer_pool()), {},
      {1, 2, 3});
}

// Final rows (stop, time) -> results sorted like the paper's ORDER BY.
// Surfaces the plan's fault status instead of a partial result.
Result<std::vector<StopTimeResult>> CollectResults(OperatorPtr plan) {
  std::vector<StopTimeResult> out;
  while (auto row = plan->Next()) {
    // Deadline checkpoint on the TTL scan drain (see query_context.h).
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    out.push_back({static_cast<StopId>((*row)[0].AsInt()),
                   FromStoredTime((*row)[1].AsInt())});
  }
  PTLDB_RETURN_IF_ERROR(plan->status());
  ThisThreadQueryCounters().rows_emitted += out.size();
  return out;
}

std::function<bool(const Row&, const Row&)> OrderByTimeAscStopAsc() {
  return [](const Row& a, const Row& b) {
    const int32_t ta = a[1].AsInt();
    const int32_t tb = b[1].AsInt();
    return ta != tb ? ta < tb : a[0].AsInt() < b[0].AsInt();
  };
}

std::function<bool(const Row&, const Row&)> OrderByTimeDescStopAsc() {
  return [](const Row& a, const Row& b) {
    const int32_t ta = a[1].AsInt();
    const int32_t tb = b[1].AsInt();
    return ta != tb ? ta > tb : a[0].AsInt() < b[0].AsInt();
  };
}

// GROUP BY v2 + ORDER BY + LIMIT tail of both plans.
OperatorPtr FinishEa(OperatorPtr plan, uint32_t k) {
  plan = MakeHashAggregate(std::move(plan), 0, 1, AggFn::kMin);
  plan = MakeSort(std::move(plan), OrderByTimeAscStopAsc());
  if (k != 0) plan = MakeLimit(std::move(plan), k);
  return plan;
}

OperatorPtr FinishLd(OperatorPtr plan, uint32_t k) {
  plan = MakeHashAggregate(std::move(plan), 0, 1, AggFn::kMax);
  plan = MakeSort(std::move(plan), OrderByTimeDescStopAsc());
  if (k != 0) plan = MakeLimit(std::move(plan), k);
  return plan;
}

}  // namespace

Result<std::vector<StopTimeResult>> QueryEaKnnNaive(
    EngineDatabase* db, const std::string& set_name, StopId q, EventTime t,
    uint32_t k) {
  PTLDB_RETURN_IF_ERROR(RequireTable(db, kLoutTable).status());
  auto naive = RequireTable(db, NaiveKnnTableName(set_name));
  PTLDB_RETURN_IF_ERROR(naive.status());
  BufferPool* pool = db->buffer_pool();

  const StoredTime td_min = SaturatingToStoredTime(t);
  OperatorPtr n1 =
      MakeFilter(MakeN1(db, q),
                 [td_min](const Row& r) { return r[1].AsInt() >= td_min; });
  // Join every l1 with all naive rows (hub = l1.hub, td >= l1.ta).
  OperatorPtr n2 = MakeIndexRangeJoin(
      std::move(n1), *naive,
      [](const Row& r) { return MakeCompositeKey(r[0].AsInt(), r[2].AsInt()); },
      [](const Row& r) {
        return MakeCompositeKey(r[0].AsInt(),
                                std::numeric_limits<int32_t>::max());
      },
      pool);
  // Expand vs[1:k], tas[1:k] -> (v2, ta).
  OperatorPtr expanded = MakeUnnest(std::move(n2), {}, {5, 6}, k);
  return CollectResults(FinishEa(std::move(expanded), k));
}

Result<std::vector<StopTimeResult>> QueryLdKnnNaive(
    EngineDatabase* db, const std::string& set_name, StopId q, EventTime t,
    uint32_t k) {
  PTLDB_RETURN_IF_ERROR(RequireTable(db, kLoutTable).status());
  auto naive = RequireTable(db, NaiveKnnTableName(set_name));
  PTLDB_RETURN_IF_ERROR(naive.status());
  BufferPool* pool = db->buffer_pool();

  OperatorPtr n2 = MakeIndexRangeJoin(
      MakeN1(db, q), *naive,
      [](const Row& r) { return MakeCompositeKey(r[0].AsInt(), r[2].AsInt()); },
      [](const Row& r) {
        return MakeCompositeKey(r[0].AsInt(),
                                std::numeric_limits<int32_t>::max());
      },
      pool);
  // Keep n1_td, expand vs[1:k]/tas[1:k] -> (n1_td, v2, ta2).
  OperatorPtr expanded = MakeUnnest(std::move(n2), {1}, {5, 6}, k);
  const StoredTime ta_max = SaturatingToStoredTime(t);
  OperatorPtr feasible =
      MakeFilter(std::move(expanded),
                 [ta_max](const Row& r) { return r[2].AsInt() <= ta_max; });
  OperatorPtr projected =
      MakeProject(std::move(feasible),
                  [](const Row& r) { return Row{r[1], r[0]}; });
  return CollectResults(FinishLd(std::move(projected), k));
}

}  // namespace ptldb
