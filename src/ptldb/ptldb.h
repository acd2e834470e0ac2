#ifndef PTLDB_PTLDB_PTLDB_H_
#define PTLDB_PTLDB_PTLDB_H_

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_log.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "engine/database.h"
#include "engine/vm.h"
#include "timetable/types.h"
#include "ttl/label.h"
#include "ttl/label_store.h"

namespace ptldb {

/// The seven query types of the paper (Codes 1-4). Used to key the
/// facade's per-type counters and latency histograms.
enum class QueryType {
  kV2vEa = 0,
  kV2vLd,
  kV2vSd,
  kEaKnn,
  kLdKnn,
  kEaOtm,
  kLdOtm,
};
inline constexpr size_t kNumQueryTypes = 7;

/// Stable short name ("v2v_ea", "ea_knn", ...) used in metric names and
/// trace spans.
const char* QueryTypeName(QueryType type);

/// Declared early for use in Timed(); documented at the bottom of this
/// header next to QueryStats.
bool LastQueryDegradedOnThisThread();

/// Options for building a PtldbDatabase. There is one execution path:
/// every query except the Code 2 naive baselines runs a VM program
/// compiled at Build/AddTargetSet (engine/vm.h, DESIGN.md §13) over the
/// lout/lin heap rows, read through the buffer pool configured here.
struct PtldbOptions {
  /// Simulated storage device backing the database (see DESIGN.md).
  DeviceProfile device = DeviceProfile::Hdd7200();
  /// Buffer-pool capacity in 8 KiB pages. The paper configures 8 GiB of
  /// shared buffers — far above its dataset sizes — so the default is
  /// effectively unbounded.
  uint64_t buffer_pool_pages = 1u << 20;
  /// Buffer-pool shard count (0 = derive from capacity; see BufferPool).
  /// Each shard has its own latch and LRU list, so concurrent queries
  /// stop serializing on one pool mutex.
  uint32_t buffer_pool_shards = 0;
  /// Worker threads for building the derived kNN/OTM tables in
  /// AddTargetSet (0 = one per hardware thread, 1 = serial). Purely a
  /// speed knob: the loaded tables are identical for every value.
  uint32_t num_threads = 1;
  /// Structured request history: ring capacity, tail-sampling policy and
  /// slow-query threshold (DESIGN.md §11). Always on by default — the
  /// CI overhead gate pins the cost — and togglable at runtime via
  /// query_log()->set_enabled().
  QueryLogOptions query_log;
};

/// The PTLDB system of the paper: TTL labels stored in database tables plus
/// the seven query types, executed against the embedded storage engine.
/// Each query type runs a VM program compiled once (Code 1 at Build,
/// Codes 3-4 per target set); SQL text runs the interpreter (src/sql).
///
/// Typical use:
///   auto index = BuildTtlIndex(timetable);
///   auto db = PtldbDatabase::Build(*index);
///   db->AddTargetSet("poi", *index, poi_stops, /*kmax=*/16);
///   db->EarliestArrival(s, g, t);
///   db->EaKnn("poi", q, t, 4);
///
/// For the paper's actual pure-SQL deployment on PostgreSQL, see
/// src/pgsql (SqlWriter emits the DDL/COPY/queries; PgBackend runs them).
class PtldbDatabase {
 public:
  /// Builds the lout/lin tables from a TTL index (which must include the
  /// dummy tuples of Section 3.1 — the default of BuildTtlIndex) and
  /// compiles the three Code 1 programs over them.
  static Result<std::unique_ptr<PtldbDatabase>> Build(
      const TtlIndex& index, const PtldbOptions& options = {});

  /// Builds the bucket tables for a fixed target set (Sections 3.2-3.3):
  /// otm_ea_<set> and otm_ld_<set>, one condensed entry per target. kNN
  /// reads the first k entries of the same rows, which are exactly the
  /// paper's knn_ea/knn_ld rows (see AddPaperKnnTables). `kmax` caps the
  /// k a kNN query may ask for; `bucket_seconds` is the (hub, hour)
  /// grouping interval (one hour in the paper; Section 3.2.1 discusses
  /// the tradeoff).
  ///
  /// `targets` has set semantics: duplicate stops collapse to a single
  /// target before the tables are built, so a stop can never appear twice
  /// in one answer. Also compiles the set's EA and LD programs; a
  /// compile error is returned and the set is not registered.
  ///
  /// Readers are not stalled: sets_mu_ is held only to check the name
  /// and to publish the finished set. The tables are built, sealed and
  /// compiled under build_mu_ alone, which queries never take, so queries
  /// run meanwhile; concurrent registrations run one after another, and a
  /// name registered by an earlier one is rejected with kInvalidArgument.
  /// The paper's knn_* tables are not built; see AddPaperKnnTables.
  Status AddTargetSet(const std::string& name, const TtlIndex& index,
                      const std::vector<StopId>& targets, uint32_t kmax,
                      Duration bucket_seconds = kHourBucket);

  /// Builds the paper's three kNN tables for a registered set, from its
  /// canonical targets, kmax and bucket width: knn_naive_<set>, which the
  /// Code 2 naive baselines (EaKnnNaive/LdKnnNaive, Figure 3) read, and
  /// knn_ea_<set>/knn_ld_<set>, which only the paper's literal Code 3/4
  /// SQL and the storage count of Section 4.3 read. kNotFound for an
  /// unknown set, kInvalidArgument if the tables already exist. Like
  /// AddTargetSet, it builds under build_mu_ alone, so queries are not
  /// stalled.
  Status AddPaperKnnTables(const std::string& set_name, const TtlIndex& index);

  // --- Vertex-to-vertex queries (Code 1) ---
  // Non-OK on storage faults (kIoError) or detected corruption
  // (kCorruption) — never a silently wrong journey.
  Result<EventTime> EarliestArrival(StopId s, StopId g, EventTime t);
  Result<EventTime> LatestDeparture(StopId s, StopId g, EventTime t_end);
  Result<Duration> ShortestDuration(StopId s, StopId g, EventTime t,
                                    EventTime t_end);

  // --- kNN queries (Section 3.2); k must be <= the set's kmax ---
  // Graceful degradation: when the optimized otm_* tables hit a
  // storage fault, the facade re-answers from per-target v2v label queries
  // (the paper's Section 3.2 baseline) and records degraded=true in
  // query_stats(). Only if the fallback faults too does the error surface.
  //
  // Edge semantics (shared with the brute oracle):
  //  - k > |T| is fine: the answer simply has fewer than k entries.
  //  - q ∈ T: the querier already stands at target q, so q reports
  //    arrival t (EA) / departure t_end (LD) — "stay put" beats any
  //    label journey. Every path (plan, naive, fallback) agrees.
  //  - Unreachable targets are omitted, never reported with a sentinel.
  Result<std::vector<StopTimeResult>> EaKnn(const std::string& set_name,
                                            StopId q, EventTime t, uint32_t k);
  Result<std::vector<StopTimeResult>> LdKnn(const std::string& set_name,
                                            StopId q, EventTime t, uint32_t k);
  /// The naive baselines of Code 2 (Figure 3 compares against these).
  /// kNotFound until AddPaperKnnTables has built the set's naive table.
  Result<std::vector<StopTimeResult>> EaKnnNaive(const std::string& set_name,
                                                 StopId q, EventTime t,
                                                 uint32_t k);
  Result<std::vector<StopTimeResult>> LdKnnNaive(const std::string& set_name,
                                                 StopId q, EventTime t,
                                                 uint32_t k);

  // --- One-to-many queries (Section 3.3) ---
  Result<std::vector<StopTimeResult>> EaOneToMany(const std::string& set_name,
                                                  StopId q, EventTime t);
  Result<std::vector<StopTimeResult>> LdOneToMany(const std::string& set_name,
                                                  StopId q, EventTime t);

  // --- Circuit-breaker support (src/server) ---
  /// Answers a kNN (k > 0) or one-to-many (k == 0) query directly from
  /// the exact per-target v2v fallback, never touching the optimized
  /// derived tables. The server routes here while a table's circuit
  /// breaker is open: repeating the primary against a quarantined or
  /// unreadable table would burn a retry (and its backoff waits) per
  /// request for a failure already diagnosed. Same answers and ordering
  /// as the degraded path of EaKnn/LdKnn/…OneToMany.
  Result<std::vector<StopTimeResult>> EaFallbackQuery(
      const std::string& set_name, StopId q, EventTime t, uint32_t k);
  Result<std::vector<StopTimeResult>> LdFallbackQuery(
      const std::string& set_name, StopId q, EventTime t, uint32_t k);

  // --- Administration / instrumentation ---
  /// Cold-cache reset, like the paper's server restart between experiments.
  /// Fails with kInternal if a concurrent query still pins pages (the
  /// reset would be partial and the "cold" measurement a lie).
  Status DropCaches() { return db_.DropCaches(); }
  /// Modeled I/O time accumulated since the last ResetIoStats(): page
  /// transfers plus retry-backoff waits.
  uint64_t io_time_ns() const { return device_->total_ns(); }
  /// Zeroes *every* device counter of normal operation (transfer ns,
  /// retry/backoff wait ns, read counts) and the buffer pool's
  /// cache-effectiveness counters, so a measurement window starts from a
  /// true zero. Injected-fault counters survive (see StorageDevice).
  void ResetIoStats();
  /// Total table footprint in bytes (heap + index pages).
  uint64_t size_bytes() const { return db_.total_size_bytes(); }

  /// Snapshot of every metric in the stack: the engine's device/buffer-pool
  /// counters, the executor/TTL operation counters, and the facade's
  /// per-query-type counts, latency histograms and degradation causes.
  /// Export with MetricsSnapshot::ToPrometheusText() / ToJson().
  MetricsSnapshot Snapshot() const;
  /// The registry behind Snapshot(), for callers adding their own metrics.
  MetricsRegistry* metrics() { return db_.metrics(); }

  /// The structured request history: one record per facade (or served)
  /// query with a phase-attributed latency breakdown, plus the
  /// tail-sampled traces. Backs the `ptldb_slow_queries` /
  /// `ptldb_traces` SQL system tables. Never null.
  QueryLog* query_log() { return query_log_.get(); }
  const QueryLog* query_log() const { return query_log_.get(); }

  /// Zeroes the `ttl.*` operation counters (hubs merged, label
  /// comparisons, label decodes/bytes) the way ResetIoStats() zeroes the
  /// device, so warm/cold bench recipes and the system tables report
  /// per-window numbers.
  void ResetLabelStats() { db_.metrics()->ResetPrefix("ttl."); }

  /// Installs a span tracer: every facade query opens a span named after
  /// its query type and attaches its engine-counter deltas (pool
  /// hits/misses, device reads, hubs merged, ...). The trace is owned by
  /// the caller and is not thread-safe — install it only while this
  /// database is queried from one thread; pass nullptr to detach.
  void set_trace(QueryTrace* trace) { trace_ = trace; }

  EngineDatabase* engine() { return &db_; }
  uint32_t num_stops() const { return num_stops_; }
  /// Always nullptr: queries read labels from the lout/lin heap rows
  /// only. Kept so callers that add a RAM-resident label footprint to
  /// size_bytes() keep compiling; LabelStore remains a ttl-layer library
  /// (ttl/label_store.h).
  const LabelStore* label_store() const { return nullptr; }

  /// Metadata of a registered target set.
  struct TargetSetInfo {
    std::string name;
    uint32_t kmax = 0;
    Duration bucket_seconds = kHourBucket;
    int32_t max_bucket = 0;  ///< LD deadlines clamp to this bucket.
    /// The target stops, kept for the degraded per-target v2v fallback.
    std::vector<StopId> targets;
    /// Compiled EA and LD bucket scans (engine/vm.h) over otm_ea_<set>
    /// and otm_ld_<set>, bound at AddTargetSet. kNN runs them with k,
    /// one-to-many with k = 0. POD copies; the table pointers inside stay
    /// valid for the database's lifetime.
    VmProgram ea_program;
    VmProgram ld_program;
  };

  /// Per-facade query accounting, including degradation events. A
  /// point-in-time snapshot (returned by value): the counters behind it
  /// are registry-backed atomics, so accounting is exact even when
  /// multiple threads query one database concurrently.
  struct QueryStats {
    uint64_t queries = 0;    ///< Facade queries answered (any type).
    uint64_t degraded = 0;   ///< Answered via the v2v fallback plan.
    bool last_degraded = false;  ///< Whether the last query degraded.
    /// Queries per type, indexed by QueryType. The naive kNN baselines
    /// count toward their kNN type. Sums to `queries`.
    std::array<uint64_t, kNumQueryTypes> by_type = {};
  };
  QueryStats query_stats() const;
  void ResetQueryStats();
  /// Registered target sets, in name order.
  std::vector<TargetSetInfo> target_sets() const {
    MutexLock lock(sets_mu_);
    std::vector<TargetSetInfo> out;
    for (const auto& [name, info] : target_sets_) {
      TargetSetInfo copy = info;
      copy.name = name;
      out.push_back(std::move(copy));
    }
    return out;
  }

 private:
  explicit PtldbDatabase(const PtldbOptions& options);

  Result<const TargetSetInfo*> ValidateSet(const std::string& set_name,
                                           uint32_t k) const;

  /// AddTargetSet's build, run under build_mu_ without sets_mu_:
  /// canonicalizes the targets, builds the set's two tables and compiles
  /// its programs into `info`.
  Status BuildTargetSet(const std::string& name, const TtlIndex& index,
                        const std::vector<StopId>& targets, uint32_t kmax,
                        Duration bucket_seconds, TargetSetInfo* info);

  /// Resets this thread's LastQueryDegradedOnThisThread() flag (defined
  /// in ptldb.cc next to the thread_local it clears).
  static void ClearThreadDegradedFlag();

  /// Request arguments recorded into the query log (all optional; -1 /
  /// Invalid() / nullptr mean "not applicable to this query type").
  struct QueryArgs {
    int64_t s = -1;
    int64_t g = -1;
    EventTime t = EventTime::Invalid();
    EventTime t_end = EventTime::Invalid();
    int64_t k = -1;
    const char* set_name = nullptr;
  };

  /// Wraps one facade query: opens a trace span named after the query
  /// type, then counts the query, records its latency (wall time plus the
  /// modeled-I/O delta, the paper's reporting convention) and flushes the
  /// thread's LocalQueryCounters deltas into the registry.
  ///
  /// Query-log integration: if no RequestRecorder is installed on this
  /// thread (direct library use), one is installed here, so every facade
  /// query leaves exactly one record; if the server already installed
  /// one around Dispatch, this only fills in the type/args of the
  /// outermost query (nested fallback v2v calls leave them alone) and
  /// the server finishes the record after the response callback.
  /// Execution outside the explicit decode/merge/buffer-I/O scopes is
  /// attributed to the `plan` phase.
  template <typename Fn>
  auto Timed(QueryType type, const QueryArgs& args, Fn&& fn)
      -> decltype(fn()) {
    ClearThreadDegradedFlag();
    RequestRecorder recorder(query_log_.get());
    if (RequestRecorder* rec = RequestRecorder::Current();
        rec != nullptr && rec->record().type[0] == '\0') {
      QueryLogRecord& r = rec->record();
      r.set_type(QueryTypeName(type));
      r.s = static_cast<int32_t>(args.s);
      r.g = static_cast<int32_t>(args.g);
      // Times are recorded at full compute-tier width: a multi-day
      // timestamp must not truncate in ptldb_slow_queries.
      r.t = args.t;
      r.t_end = args.t_end;
      r.k = static_cast<int32_t>(args.k);
      if (args.set_name != nullptr) r.set_set_name(args.set_name);
    }
    const auto wall0 = std::chrono::steady_clock::now();
    const uint64_t io0 = device_->total_ns();
    const LocalQueryCounters local0 = ThisThreadQueryCounters();
    auto result = [&] {
      ScopedQueryPhase plan_phase(QueryPhase::kPlan);
      ScopedEngineSpan span(trace_, &db_, QueryTypeName(type));
      return fn();
    }();
    const uint64_t wall_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - wall0)
            .count());
    const size_t i = static_cast<size_t>(type);
    query_count_[i]->Add(1);
    query_latency_[i]->Record(wall_ns + (device_->total_ns() - io0));
    const LocalQueryCounters d = ThisThreadQueryCounters() - local0;
    if (d.tuples_scanned) exec_tuples_->Add(d.tuples_scanned);
    if (d.index_seeks) exec_seeks_->Add(d.index_seeks);
    if (d.rows_emitted) exec_rows_->Add(d.rows_emitted);
    if (d.hubs_merged) ttl_hubs_->Add(d.hubs_merged);
    if (d.label_comparisons) ttl_cmps_->Add(d.label_comparisons);
    if (d.label_decodes) ttl_decodes_->Add(d.label_decodes);
    if (d.label_decode_bytes) ttl_decode_bytes_->Add(d.label_decode_bytes);
    if (d.vm_steps) vm_steps_->Add(d.vm_steps);
    if (RequestRecorder* rec = RequestRecorder::Current(); rec != nullptr) {
      if (LastQueryDegradedOnThisThread()) rec->record().degraded = true;
      if (trace_ != nullptr) rec->AttachTraceJson(trace_->ToJson());
    }
    if (recorder.active()) {
      const char* cause = nullptr;
      const QueryOutcome outcome = OutcomeForStatus(result.status(), &cause);
      recorder.Finish(outcome, cause);
    }
    return result;
  }

  /// Per-target v2v answers (the always-correct baseline) used when the
  /// optimized kNN/OTM tables fault: the stored Code 1 EA/LD program runs
  /// once per target. k == 0 means one-to-many (no limit).
  Result<std::vector<StopTimeResult>> EaFallback(const TargetSetInfo& info,
                                                 StopId q, EventTime t,
                                                 uint32_t k);
  Result<std::vector<StopTimeResult>> LdFallback(const TargetSetInfo& info,
                                                 StopId q, EventTime t,
                                                 uint32_t k);
  /// Applies the degradation policy: pass through a healthy result, fall
  /// back on a storage fault, surface every other error.
  Result<std::vector<StopTimeResult>> OrDegrade(
      Result<std::vector<StopTimeResult>> primary, const TargetSetInfo& info,
      StopId q, EventTime t, uint32_t k, bool ld);

  EngineDatabase db_;
  StorageDevice* device_;
  uint32_t num_threads_ = 1;  ///< Workers for derived-table construction.
  uint32_t num_stops_ = 0;
  /// Latest event timestamp of the loaded index (LD deadline clamping).
  EventTime max_event_time_;
  /// The three Code 1 programs, compiled once at Build (indexed by
  /// QueryType kV2vEa/kV2vLd/kV2vSd). Immutable afterwards, read
  /// lock-free by concurrent queries.
  std::array<VmProgram, 3> v2v_programs_ = {};
  const VmProgram& v2v_program(QueryType type) const {
    return v2v_programs_[static_cast<size_t>(type)];
  }
  /// Writer latch: serializes AddTargetSet and AddPaperKnnTables, which
  /// makes them the PageStore's one writer. Held across a whole build;
  /// queries never take it. Acquired before sets_mu_.
  Mutex build_mu_;
  /// Catalog latch: guards the target-set map. Held only for lookups and
  /// the final insert — never across a table build, a BulkLoad or a
  /// compile — so a registration never stalls readers for longer than a
  /// map insert. Sets are never erased, so TargetSetInfo pointers handed
  /// out by ValidateSet stay valid after the latch drops (std::map nodes
  /// are stable) and the info behind them is immutable once published.
  /// The engine catalog latch, shard latches and the device mutex are
  /// acquired below it, never the other way around.
  mutable Mutex sets_mu_;
  std::map<std::string, TargetSetInfo> target_sets_
      PTLDB_GUARDED_BY(sets_mu_);

  // Registry-backed query accounting (pointers are stable; see
  // MetricsRegistry). All writes are atomic, so concurrent facade
  // queries account exactly.
  std::array<Counter*, kNumQueryTypes> query_count_ = {};
  std::array<Histogram*, kNumQueryTypes> query_latency_ = {};
  Counter* degraded_ = nullptr;
  Counter* degraded_io_error_ = nullptr;
  Counter* degraded_corruption_ = nullptr;
  Counter* exec_tuples_ = nullptr;
  Counter* exec_seeks_ = nullptr;
  Counter* exec_rows_ = nullptr;
  Counter* ttl_hubs_ = nullptr;
  Counter* ttl_cmps_ = nullptr;
  Counter* ttl_decodes_ = nullptr;
  Counter* ttl_decode_bytes_ = nullptr;
  Counter* vm_steps_ = nullptr;
  std::atomic<bool> last_degraded_{false};

  /// Structured request history (never null; see query_log()). Owned
  /// here so the ring lives exactly as long as the registry it reports
  /// into.
  std::unique_ptr<QueryLog> query_log_;

  QueryTrace* trace_ = nullptr;  ///< Borrowed; single-thread use only.
};

/// Whether the last facade query executed on the *calling thread* was
/// answered via the degraded v2v fallback. Unlike
/// QueryStats::last_degraded (one flag shared by every thread), this is
/// exact under concurrent serving; the server's per-table circuit
/// breaker reads it after each kNN/OTM call.
bool LastQueryDegradedOnThisThread();

}  // namespace ptldb

#endif  // PTLDB_PTLDB_PTLDB_H_
