#include "ptldb/ptldb.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/query_context.h"
#include "ptldb/compiled.h"
#include "ptldb/tables.h"

namespace ptldb {

namespace {

/// Faults that warrant the degraded fallback path; every other error
/// (bad arguments, unknown sets) is the caller's to see.
bool IsStorageFault(const Status& s) {
  return s.code() == Status::Code::kIoError ||
         s.code() == Status::Code::kCorruption;
}

/// Per-thread mirror of last_degraded_. The shared atomic answers "did
/// the database degrade recently" for single-threaded callers; a
/// concurrent server needs "did MY query degrade" — its circuit breaker
/// trips per-request, and another thread's healthy query must not clear
/// the signal between this thread's query and its read. A query runs on
/// one thread, so a thread_local is exact.
thread_local bool tls_last_degraded = false;

}  // namespace

bool LastQueryDegradedOnThisThread() { return tls_last_degraded; }

const char* QueryTypeName(QueryType type) {
  switch (type) {
    case QueryType::kV2vEa:
      return "v2v_ea";
    case QueryType::kV2vLd:
      return "v2v_ld";
    case QueryType::kV2vSd:
      return "v2v_sd";
    case QueryType::kEaKnn:
      return "ea_knn";
    case QueryType::kLdKnn:
      return "ld_knn";
    case QueryType::kEaOtm:
      return "ea_otm";
    case QueryType::kLdOtm:
      return "ld_otm";
  }
  return "unknown";
}

PtldbDatabase::PtldbDatabase(const PtldbOptions& options)
    : db_(options.device, options.buffer_pool_pages,
          options.buffer_pool_shards),
      device_(db_.device()),
      num_threads_(options.num_threads) {
  MetricsRegistry* m = db_.metrics();
  for (size_t i = 0; i < kNumQueryTypes; ++i) {
    const std::string prefix =
        std::string("query.") + QueryTypeName(static_cast<QueryType>(i));
    query_count_[i] = m->counter(prefix + ".count");
    query_latency_[i] = m->histogram(prefix + ".latency_ns");
  }
  degraded_ = m->counter("query.degraded");
  degraded_io_error_ = m->counter("query.degraded.io_error");
  degraded_corruption_ = m->counter("query.degraded.corruption");
  exec_tuples_ = m->counter("exec.tuples_scanned");
  exec_seeks_ = m->counter("exec.index_seeks");
  exec_rows_ = m->counter("exec.rows_emitted");
  ttl_hubs_ = m->counter("ttl.hubs_merged");
  ttl_cmps_ = m->counter("ttl.label_comparisons");
  ttl_decodes_ = m->counter("ttl.labels.decodes");
  ttl_decode_bytes_ = m->counter("ttl.labels.decoded_bytes");
  vm_steps_ = m->counter("exec.vm_steps");
  query_log_ = std::make_unique<QueryLog>(options.query_log, m);
}

Result<std::unique_ptr<PtldbDatabase>> PtldbDatabase::Build(
    const TtlIndex& index, const PtldbOptions& options) {
  std::unique_ptr<PtldbDatabase> db(new PtldbDatabase(options));
  PTLDB_RETURN_IF_ERROR(BuildLabelTables(index, &db->db_));
  db->num_stops_ = index.num_stops();
  db->max_event_time_ = EventTime::FromSeconds(
      ComputeBucketRange(index, Duration::FromSeconds(1)).max_bucket);
  // Compile the three Code 1 programs once; the entry points only select.
  for (const auto& [type, kind] :
       {std::pair{QueryType::kV2vEa, CompiledV2vKind::kEa},
        std::pair{QueryType::kV2vLd, CompiledV2vKind::kLd},
        std::pair{QueryType::kV2vSd, CompiledV2vKind::kSd}}) {
    auto prog = CompileV2v(&db->db_, kind);
    PTLDB_RETURN_IF_ERROR(prog.status());
    db->v2v_programs_[static_cast<size_t>(type)] = *prog;
  }
  return db;
}

Status PtldbDatabase::AddTargetSet(const std::string& name,
                                   const TtlIndex& index,
                                   const std::vector<StopId>& targets,
                                   uint32_t kmax,
                                   Duration bucket_seconds) {
  if (index.num_stops() != num_stops_) {
    return Status::InvalidArgument("index does not match this database");
  }
  if (kmax == 0) return Status::InvalidArgument("kmax must be positive");
  if (bucket_seconds <= Duration::Zero()) {
    return Status::InvalidArgument("bucket width must be positive");
  }
  // Registrations run one at a time under build_mu_, which readers never
  // take; sets_mu_ is held only to check the name and to publish, so
  // queries proceed while the tables are built.
  MutexLock build(build_mu_);
  {
    MutexLock lock(sets_mu_);
    if (target_sets_.count(name) != 0) {
      return Status::InvalidArgument("target set exists: " + name);
    }
  }
  TargetSetInfo info;
  PTLDB_RETURN_IF_ERROR(
      BuildTargetSet(name, index, targets, kmax, bucket_seconds, &info));
  MutexLock lock(sets_mu_);
  target_sets_.emplace(name, std::move(info));
  return Status::Ok();
}

Status PtldbDatabase::BuildTargetSet(const std::string& name,
                                     const TtlIndex& index,
                                     const std::vector<StopId>& targets,
                                     uint32_t kmax, Duration bucket_seconds,
                                     TargetSetInfo* info) {
  // Target sets have set semantics: duplicate stops collapse to one
  // target (a duplicated stop must not appear twice in a kNN answer), and
  // the canonical list is kept sorted so self-membership tests (q ∈ T)
  // are a binary search.
  std::vector<StopId> canon = targets;
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  PTLDB_RETURN_IF_ERROR(BuildBucketTables(
      index, canon, /*k=*/0, OtmEaTableName(name), OtmLdTableName(name), &db_,
      bucket_seconds, num_threads_));
  info->kmax = kmax;
  info->bucket_seconds = bucket_seconds;
  info->max_bucket = CheckedBucketOf(max_event_time_, bucket_seconds);
  info->targets = std::move(canon);
  // Compile the EA and LD bucket scans once per set, after BulkLoad has
  // sealed and published the tables they bind; the kNN/OTM entry points
  // select a stored program instead of building a plan per query. kNN
  // runs a program with its k, which reads the first k condensed entries
  // of each row (the paper's knn_* row); one-to-many runs it with 0.
  for (const auto& [prog, scan, table] :
       {std::tuple{&info->ea_program, VmOp::kScanEaBuckets,
                   OtmEaTableName(name)},
        std::tuple{&info->ld_program, VmOp::kScanLdBuckets,
                   OtmLdTableName(name)}}) {
    auto compiled = CompileSetQuery(&db_, scan, table, bucket_seconds,
                                    info->max_bucket);
    PTLDB_RETURN_IF_ERROR(compiled.status());
    *prog = *compiled;
  }
  return Status::Ok();
}

Status PtldbDatabase::AddPaperKnnTables(const std::string& set_name,
                                        const TtlIndex& index) {
  if (index.num_stops() != num_stops_) {
    return Status::InvalidArgument("index does not match this database");
  }
  MutexLock build(build_mu_);
  auto info = ValidateSet(set_name, 1);
  PTLDB_RETURN_IF_ERROR(info.status());
  const TargetSetInfo& set = **info;
  // A second call fails in CreateTable ("table exists"), before any rows
  // are built.
  PTLDB_RETURN_IF_ERROR(BuildNaiveKnnTable(index, set.targets, set.kmax,
                                           set_name, &db_, num_threads_));
  return BuildBucketTables(index, set.targets, set.kmax,
                           KnnEaTableName(set_name), KnnLdTableName(set_name),
                           &db_, set.bucket_seconds, num_threads_);
}

Result<EventTime> PtldbDatabase::EarliestArrival(StopId s, StopId g,
                                                 EventTime t) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kV2vEa, {.s = s, .g = g, .t = t}, [&] {
    return RunCompiledV2v(&db_, v2v_program(QueryType::kV2vEa), s, g, t,
                          /*t_end=*/EventTime());
  });
}

Result<EventTime> PtldbDatabase::LatestDeparture(StopId s, StopId g,
                                                 EventTime t_end) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kV2vLd, {.s = s, .g = g, .t_end = t_end}, [&] {
    return RunCompiledV2v(&db_, v2v_program(QueryType::kV2vLd), s, g,
                          /*t=*/EventTime(), t_end);
  });
}

Result<Duration> PtldbDatabase::ShortestDuration(StopId s, StopId g,
                                                 EventTime t,
                                                 EventTime t_end) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kV2vSd, {.s = s, .g = g, .t = t, .t_end = t_end},
               [&] {
                 return RunCompiledV2vSd(
                     &db_, v2v_program(QueryType::kV2vSd), s, g, t, t_end);
               });
}

namespace {

/// q ∈ T means the querier already stands at a target at time t, so the
/// true earliest arrival at q is t itself — and symmetrically the latest
/// departure to reach q by t_end is t_end. The label join cannot see this
/// "stay put" journey (labels encode only connections), so every facade
/// path — optimized plan, naive plan, degraded per-target fallback —
/// patches the self entry in afterwards. This keeps all paths consistent
/// with each other and with the brute oracle.
void PatchSelfTarget(std::vector<StopTimeResult>* out,
                     const std::vector<StopId>& sorted_targets, StopId q,
                     EventTime t, uint32_t k, bool ld) {
  if (!std::binary_search(sorted_targets.begin(), sorted_targets.end(), q)) {
    return;
  }
  out->erase(std::remove_if(
                 out->begin(), out->end(),
                 [&](const StopTimeResult& r) { return r.stop == q; }),
             out->end());
  out->push_back({q, t});
  std::sort(out->begin(), out->end(),
            [&](const StopTimeResult& a, const StopTimeResult& b) {
              if (a.time != b.time) {
                return ld ? a.time > b.time : a.time < b.time;
              }
              return a.stop < b.stop;
            });
  if (k != 0 && out->size() > k) out->resize(k);
}

/// Code 2 compiles per call: its program binds knn_naive_<set>, which
/// only exists once AddPaperKnnTables has built it. The lookups are the
/// same catalog finds the stored programs make once at AddTargetSet.
Result<std::vector<StopTimeResult>> RunNaiveKnn(
    EngineDatabase* db, VmOp scan, const std::string& set_name,
    const PtldbDatabase::TargetSetInfo& info, StopId q, EventTime t,
    uint32_t k) {
  const std::string table = NaiveKnnTableName(set_name);
  if (db->FindTable(table) == nullptr) {
    return Status::NotFound(table +
                            " is not built; call AddPaperKnnTables(\"" +
                            set_name + "\", index) first");
  }
  auto prog =
      CompileSetQuery(db, scan, table, info.bucket_seconds, info.max_bucket);
  PTLDB_RETURN_IF_ERROR(prog.status());
  return RunCompiledSetQuery(db, *prog, q, t, k);
}

}  // namespace

Result<const PtldbDatabase::TargetSetInfo*> PtldbDatabase::ValidateSet(
    const std::string& set_name, uint32_t k) const {
  MutexLock lock(sets_mu_);
  const auto it = target_sets_.find(set_name);
  if (it == target_sets_.end()) {
    return Status::NotFound("unknown target set: " + set_name);
  }
  if (k > it->second.kmax) {
    return Status::InvalidArgument("k exceeds the set's kmax");
  }
  if (k == 0) return Status::InvalidArgument("k must be positive");
  return &it->second;
}

Result<std::vector<StopTimeResult>> PtldbDatabase::EaFallback(
    const TargetSetInfo& info, StopId q, EventTime t, uint32_t k) {
  const VmProgram& prog = v2v_program(QueryType::kV2vEa);
  std::vector<StopTimeResult> out;
  for (const StopId v : info.targets) {
    // The fallback is |T| v2v programs back to back — the slowest facade
    // path, so it checkpoints per target on top of the per-page checks.
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    auto ea = RunCompiledV2v(&db_, prog, q, v, t, /*t_end=*/EventTime());
    PTLDB_RETURN_IF_ERROR(ea.status());
    if (*ea != EventTime::Infinity()) out.push_back({v, *ea});
  }
  std::sort(out.begin(), out.end(),
            [](const StopTimeResult& a, const StopTimeResult& b) {
              return a.time != b.time ? a.time < b.time : a.stop < b.stop;
            });
  if (k != 0 && out.size() > k) out.resize(k);
  return out;
}

Result<std::vector<StopTimeResult>> PtldbDatabase::LdFallback(
    const TargetSetInfo& info, StopId q, EventTime t, uint32_t k) {
  const VmProgram& prog = v2v_program(QueryType::kV2vLd);
  std::vector<StopTimeResult> out;
  for (const StopId v : info.targets) {
    PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
    auto ld = RunCompiledV2v(&db_, prog, q, v, /*t=*/EventTime(), t);
    PTLDB_RETURN_IF_ERROR(ld.status());
    if (*ld != EventTime::NegInfinity()) out.push_back({v, *ld});
  }
  std::sort(out.begin(), out.end(),
            [](const StopTimeResult& a, const StopTimeResult& b) {
              return a.time != b.time ? a.time > b.time : a.stop < b.stop;
            });
  if (k != 0 && out.size() > k) out.resize(k);
  return out;
}

Result<std::vector<StopTimeResult>> PtldbDatabase::OrDegrade(
    Result<std::vector<StopTimeResult>> primary, const TargetSetInfo& info,
    StopId q, EventTime t, uint32_t k, bool ld) {
  if (primary.ok() || !IsStorageFault(primary.status())) return primary;
  // A corrupt or unreadable optimized row must not fail the query outright:
  // the label tables still answer it exactly via per-target v2v (Section
  // 3.2's baseline), just slower.
  auto fallback = ld ? LdFallback(info, q, t, k) : EaFallback(info, q, t, k);
  if (!fallback.ok()) return primary;  // Both paths faulted: first error.
  last_degraded_.store(true, std::memory_order_relaxed);
  tls_last_degraded = true;
  degraded_->Add(1);
  (primary.status().code() == Status::Code::kCorruption
       ? degraded_corruption_
       : degraded_io_error_)
      ->Add(1);
  if (trace_) trace_->AddStat("degraded", 1);
  return fallback;
}

void PtldbDatabase::ClearThreadDegradedFlag() { tls_last_degraded = false; }

Result<std::vector<StopTimeResult>> PtldbDatabase::EaFallbackQuery(
    const std::string& set_name, StopId q, EventTime t, uint32_t k) {
  last_degraded_.store(false, std::memory_order_relaxed);
  const QueryType type = k == 0 ? QueryType::kEaOtm : QueryType::kEaKnn;
  return Timed(type,
               {.s = q, .t = t, .k = k, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    // k == 0 is the one-to-many variant; ValidateSet rejects k == 0, so
    // validate with k = 1 (sets always support at least one neighbor).
    // Validation runs inside Timed so a bad set name still leaves a
    // query-log record (outcome=error, cause=not_found).
    auto info = ValidateSet(set_name, k == 0 ? 1 : k);
    if (!info.ok()) return info.status();
    auto r = EaFallback(**info, q, t, k);
    if (r.ok()) PatchSelfTarget(&*r, (*info)->targets, q, t, k, /*ld=*/false);
    return r;
  });
}

Result<std::vector<StopTimeResult>> PtldbDatabase::LdFallbackQuery(
    const std::string& set_name, StopId q, EventTime t, uint32_t k) {
  last_degraded_.store(false, std::memory_order_relaxed);
  const QueryType type = k == 0 ? QueryType::kLdOtm : QueryType::kLdKnn;
  return Timed(type,
               {.s = q, .t = t, .k = k, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    auto info = ValidateSet(set_name, k == 0 ? 1 : k);
    if (!info.ok()) return info.status();
    auto r = LdFallback(**info, q, t, k);
    if (r.ok()) PatchSelfTarget(&*r, (*info)->targets, q, t, k, /*ld=*/true);
    return r;
  });
}

Result<std::vector<StopTimeResult>> PtldbDatabase::EaKnn(
    const std::string& set_name, StopId q, EventTime t, uint32_t k) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kEaKnn,
               {.s = q, .t = t, .k = k, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    auto info = ValidateSet(set_name, k);
    if (!info.ok()) return info.status();
    auto primary = RunCompiledSetQuery(&db_, (*info)->ea_program, q, t, k);
    auto r = OrDegrade(std::move(primary), **info, q, t, k, /*ld=*/false);
    if (r.ok()) PatchSelfTarget(&*r, (*info)->targets, q, t, k, /*ld=*/false);
    return r;
  });
}

Result<std::vector<StopTimeResult>> PtldbDatabase::LdKnn(
    const std::string& set_name, StopId q, EventTime t, uint32_t k) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kLdKnn,
               {.s = q, .t = t, .k = k, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    auto info = ValidateSet(set_name, k);
    if (!info.ok()) return info.status();
    auto primary = RunCompiledSetQuery(&db_, (*info)->ld_program, q, t, k);
    auto r = OrDegrade(std::move(primary), **info, q, t, k, /*ld=*/true);
    if (r.ok()) PatchSelfTarget(&*r, (*info)->targets, q, t, k, /*ld=*/true);
    return r;
  });
}

Result<std::vector<StopTimeResult>> PtldbDatabase::EaKnnNaive(
    const std::string& set_name, StopId q, EventTime t, uint32_t k) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kEaKnn,
               {.s = q, .t = t, .k = k, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    auto info = ValidateSet(set_name, k);
    if (!info.ok()) return info.status();
    auto r = RunNaiveKnn(&db_, VmOp::kScanEaNaive, set_name, **info, q, t, k);
    if (r.ok()) PatchSelfTarget(&*r, (*info)->targets, q, t, k, /*ld=*/false);
    return r;
  });
}

Result<std::vector<StopTimeResult>> PtldbDatabase::LdKnnNaive(
    const std::string& set_name, StopId q, EventTime t, uint32_t k) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kLdKnn,
               {.s = q, .t = t, .k = k, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    auto info = ValidateSet(set_name, k);
    if (!info.ok()) return info.status();
    auto r = RunNaiveKnn(&db_, VmOp::kScanLdNaive, set_name, **info, q, t, k);
    if (r.ok()) PatchSelfTarget(&*r, (*info)->targets, q, t, k, /*ld=*/true);
    return r;
  });
}

Result<std::vector<StopTimeResult>> PtldbDatabase::EaOneToMany(
    const std::string& set_name, StopId q, EventTime t) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kEaOtm,
               {.s = q, .t = t, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    auto info = ValidateSet(set_name, 1);
    if (!info.ok()) return info.status();
    auto primary =
        RunCompiledSetQuery(&db_, (*info)->ea_program, q, t, /*k=*/0);
    auto r = OrDegrade(std::move(primary), **info, q, t, /*k=*/0, /*ld=*/false);
    if (r.ok()) {
      PatchSelfTarget(&*r, (*info)->targets, q, t, /*k=*/0, /*ld=*/false);
    }
    return r;
  });
}

Result<std::vector<StopTimeResult>> PtldbDatabase::LdOneToMany(
    const std::string& set_name, StopId q, EventTime t) {
  last_degraded_.store(false, std::memory_order_relaxed);
  return Timed(QueryType::kLdOtm,
               {.s = q, .t = t, .set_name = set_name.c_str()},
               [&]() -> Result<std::vector<StopTimeResult>> {
    auto info = ValidateSet(set_name, 1);
    if (!info.ok()) return info.status();
    auto primary =
        RunCompiledSetQuery(&db_, (*info)->ld_program, q, t, /*k=*/0);
    auto r = OrDegrade(std::move(primary), **info, q, t, /*k=*/0, /*ld=*/true);
    if (r.ok()) {
      PatchSelfTarget(&*r, (*info)->targets, q, t, /*k=*/0, /*ld=*/true);
    }
    return r;
  });
}

void PtldbDatabase::ResetIoStats() {
  device_->ResetStats();
  db_.buffer_pool()->ResetStats();
}

PtldbDatabase::QueryStats PtldbDatabase::query_stats() const {
  QueryStats out;
  for (size_t i = 0; i < kNumQueryTypes; ++i) {
    out.by_type[i] = query_count_[i]->value();
    out.queries += out.by_type[i];
  }
  out.degraded = degraded_->value();
  out.last_degraded = last_degraded_.load(std::memory_order_relaxed);
  return out;
}

void PtldbDatabase::ResetQueryStats() {
  for (size_t i = 0; i < kNumQueryTypes; ++i) {
    query_count_[i]->Reset();
    query_latency_[i]->Reset();
  }
  degraded_->Reset();
  degraded_io_error_->Reset();
  degraded_corruption_->Reset();
  last_degraded_.store(false, std::memory_order_relaxed);
}

MetricsSnapshot PtldbDatabase::Snapshot() const { return db_.Snapshot(); }

}  // namespace ptldb
