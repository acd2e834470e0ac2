#ifndef PTLDB_PTLDB_TABLES_H_
#define PTLDB_PTLDB_TABLES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"
#include "common/time_util.h"
#include "ttl/label.h"

namespace ptldb {

/// Builders for the PTLDB database tables. Everything here mirrors the
/// pure-SQL table constructions of Sections 3.1-3.3 of the paper; the
/// src/pgsql module emits the equivalent SQL for real PostgreSQL.

/// Names of the core label tables.
inline constexpr char kLoutTable[] = "lout";
inline constexpr char kLinTable[] = "lin";

/// Builds the lout and lin tables (Section 3.1): one row per stop with
/// hubs/tds/tas array columns ordered by (hub, td), primary key v.
Status BuildLabelTables(const TtlIndex& index, EngineDatabase* db);

/// Looks up a table a query reads. A missing table is a caller error (labels
/// or set never built), reported as kInvalidArgument, not a fault.
Result<const EngineTable*> RequireTable(EngineDatabase* db,
                                        const std::string& name);

/// Names of the per-target-set tables ("<base>_<set>").
std::string NaiveKnnTableName(const std::string& set_name);
std::string KnnEaTableName(const std::string& set_name);
std::string KnnLdTableName(const std::string& set_name);
std::string OtmEaTableName(const std::string& set_name);
std::string OtmLdTableName(const std::string& set_name);

/// Bucket range shared by the kNN/OTM tables of one index: all label event
/// times fall inside [min_bucket, max_bucket] (bucket = time / width).
struct BucketRange {
  int32_t min_bucket = 0;
  int32_t max_bucket = 0;
};

/// Computes the event-bucket range of an index for a bucket width in
/// seconds (the paper uses one hour; Section 3.2.1 discusses the tradeoff
/// and the ablation bench sweeps it).
BucketRange ComputeBucketRange(const TtlIndex& index,
                               Duration bucket_seconds = kHourBucket);

/// Builds one pair of (hub, hour) bucket tables for a fixed target set
/// (Sections 3.2-3.3):
///   <ea_table> (hub, dephour) -> condensed best (v, ta) per target +
///                                the hour's expanded tuples
///   <ld_table> (hub, arrhour) -> symmetric for latest departure
/// `k` caps each condensed list (0 = one entry per target). Every cap
/// keeps a prefix of the same sorted list, so the paper's knn_* tables
/// (k = kmax) are a prefix of its otm_* tables (k = 0), row by row.
/// PtldbDatabase builds otm_ea_<set>/otm_ld_<set> at AddTargetSet, and
/// knn_ea_<set>/knn_ld_<set> only in AddPaperKnnTables.
/// `bucket_seconds` is the grouping interval (3600 in the paper).
/// `num_threads` parallelizes the per-hub row construction (0 = one per
/// hardware thread, 1 = serial); the loaded tables are identical for
/// every value. Safe to run concurrently with readers of `db`, but not
/// with another build into it (its PageStore has one writer at a time;
/// PtldbDatabase serializes its builds).
Status BuildBucketTables(const TtlIndex& index,
                         const std::vector<StopId>& targets, uint32_t k,
                         const std::string& ea_table,
                         const std::string& ld_table, EngineDatabase* db,
                         Duration bucket_seconds = kHourBucket,
                         uint32_t num_threads = 1);

/// Builds the Code 2 table of the naive kNN baseline (Figure 3):
///   knn_naive_<set> (hub, td) -> k-best distinct (v, ta) per (hub, td);
///                                serves both EA and LD naive queries.
/// Only the naive baseline reads it, so registering a set does not build
/// it; PtldbDatabase::AddPaperKnnTables does, on request.
Status BuildNaiveKnnTable(const TtlIndex& index,
                          const std::vector<StopId>& targets, uint32_t kmax,
                          const std::string& set_name, EngineDatabase* db,
                          uint32_t num_threads = 1);

}  // namespace ptldb

#endif  // PTLDB_PTLDB_TABLES_H_
