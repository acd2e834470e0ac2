#ifndef PTLDB_PTLDB_QUERIES_H_
#define PTLDB_PTLDB_QUERIES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_util.h"
#include "engine/database.h"
#include "timetable/types.h"

namespace ptldb {

/// The naive kNN baselines of Code 2, executed as volcano plans over the
/// knn_naive_<set> table. Figure 3 compares the optimized kNN query
/// against these. Every other facade query runs a compiled VM program
/// (ptldb/compiled.h); the SQL interpreter runs the paper's literal SQL
/// for all seven (src/pgsql/sql_writer.h emits the text).
///
/// Storage faults (kIoError) and detected corruption (kCorruption)
/// surface as a non-OK Result instead of a wrong or partial answer. A
/// missing table is kInvalidArgument. Prefer the PtldbDatabase facade
/// (ptldb/ptldb.h), which adds the q ∈ T "stay put" patch.

/// Code 2: the naive EA-kNN query over knn_naive_<set>.
Result<std::vector<StopTimeResult>> QueryEaKnnNaive(
    EngineDatabase* db, const std::string& set_name, StopId q, EventTime t,
    uint32_t k);

/// The LD counterpart of Code 2 (same naive table, mirrored conditions).
Result<std::vector<StopTimeResult>> QueryLdKnnNaive(
    EngineDatabase* db, const std::string& set_name, StopId q, EventTime t,
    uint32_t k);

}  // namespace ptldb

#endif  // PTLDB_PTLDB_QUERIES_H_
