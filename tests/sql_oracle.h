#ifndef PTLDB_TESTS_SQL_ORACLE_H_
#define PTLDB_TESTS_SQL_ORACLE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "pgsql/sql_writer.h"
#include "ptldb/ptldb.h"
#include "sql/interpreter.h"

namespace ptldb {

/// The paper's literal SQL for Codes 1-4 (pgsql/sql_writer.h), run by the
/// SQL interpreter against a facade's own tables. It shares nothing with
/// the facade's compiled VM programs above the storage engine, so the two
/// agreeing is an independent-executor cross-check. The SQL has no
/// "stay put" row for q ∈ T; callers skip those set queries.
class SqlOracle {
 public:
  explicit SqlOracle(PtldbDatabase* db) : db_(db), interpreter_(db->engine()) {}

  Result<EventTime> EarliestArrival(StopId s, StopId g, EventTime t) {
    auto r = Scalar(V2vSql(V2vKind::kEarliestArrival),
                    {s, g, t.raw_seconds()}, kInfinityTime);
    PTLDB_RETURN_IF_ERROR(r.status());
    return EventTime::FromSeconds(*r);
  }

  Result<EventTime> LatestDeparture(StopId s, StopId g, EventTime t_end) {
    auto r = Scalar(V2vSql(V2vKind::kLatestDeparture),
                    {s, g, t_end.raw_seconds()}, kNegInfinityTime);
    PTLDB_RETURN_IF_ERROR(r.status());
    return EventTime::FromSeconds(*r);
  }

  Result<Duration> ShortestDuration(StopId s, StopId g, EventTime t,
                                    EventTime t_end) {
    auto r = Scalar(V2vSql(V2vKind::kShortestDuration),
                    {s, g, t.raw_seconds(), t_end.raw_seconds()},
                    kInfinityTime);
    PTLDB_RETURN_IF_ERROR(r.status());
    return Duration::FromSeconds(*r);
  }

  Result<std::vector<StopTimeResult>> EaKnn(const std::string& set, StopId q,
                                            EventTime t, uint32_t k) {
    return Rows(EaKnnSql(set), {q, t.raw_seconds(), k});
  }

  Result<std::vector<StopTimeResult>> LdKnn(const std::string& set, StopId q,
                                            EventTime t, uint32_t k) {
    auto hour = ArrHour(set, t);
    PTLDB_RETURN_IF_ERROR(hour.status());
    return Rows(LdKnnSql(set), {q, t.raw_seconds(), k, *hour});
  }

  Result<std::vector<StopTimeResult>> EaOneToMany(const std::string& set,
                                                  StopId q, EventTime t) {
    return Rows(EaOtmSql(set), {q, t.raw_seconds()});
  }

  Result<std::vector<StopTimeResult>> LdOneToMany(const std::string& set,
                                                  StopId q, EventTime t) {
    auto hour = ArrHour(set, t);
    PTLDB_RETURN_IF_ERROR(hour.status());
    return Rows(LdOtmSql(set), {q, t.raw_seconds(), *hour});
  }

 private:
  // A NULL aggregate (no journey) maps to the facade's sentinel.
  Result<int64_t> Scalar(const std::string& sql,
                         const std::vector<int64_t>& params,
                         int64_t if_null) {
    auto r = interpreter_.Execute(sql, params);
    PTLDB_RETURN_IF_ERROR(r.status());
    if (r->rows.empty() || SqlIsNull(r->rows[0][0])) return if_null;
    return std::get<int64_t>(r->rows[0][0]);
  }

  Result<std::vector<StopTimeResult>> Rows(const std::string& sql,
                                           const std::vector<int64_t>& params) {
    auto r = interpreter_.Execute(sql, params);
    PTLDB_RETURN_IF_ERROR(r.status());
    std::vector<StopTimeResult> out;
    for (const auto& row : r->rows) {
      out.push_back({static_cast<StopId>(std::get<int64_t>(row[0])),
                     EventTime::FromSeconds(std::get<int64_t>(row[1]))});
    }
    return out;
  }

  // Code 4's arrival-hour parameter, computed client-side as a libpq
  // caller would: the deadline's bucket, clamped to the set's last one.
  Result<int64_t> ArrHour(const std::string& set, EventTime t) {
    for (const auto& info : db_->target_sets()) {
      if (info.name == set) {
        return std::min(SaturatingBucketOf(t, info.bucket_seconds),
                        info.max_bucket);
      }
    }
    return Status::NotFound("unknown target set: " + set);
  }

  PtldbDatabase* db_;
  SqlInterpreter interpreter_;
};

}  // namespace ptldb

#endif  // PTLDB_TESTS_SQL_ORACLE_H_
