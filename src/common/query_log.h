#ifndef PTLDB_COMMON_QUERY_LOG_H_
#define PTLDB_COMMON_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "common/time_types.h"

namespace ptldb {

/// Structured per-request history: every query — served, shed, expired or
/// failed — leaves exactly one fixed-size record in a lock-sharded bounded
/// ring buffer, carrying its arguments, outcome and a phase-attributed
/// latency breakdown. The ring is the storage behind the SQL system tables
/// `ptldb_slow_queries` / `ptldb_traces` and the `phase.*` attribution
/// metrics (DESIGN.md §11).
///
/// Attribution is exact by construction: the per-phase wall-clock
/// nanoseconds of a record always sum to its `latency_ns` (the `other`
/// phase absorbs the remainder), and the per-phase operation counters are
/// deltas of the same thread-local `LocalQueryCounters` the engine already
/// increments — so window sums of `phase.*.label_decodes` etc. telescope
/// to the engine's own `ttl.*` counters (same invariant class as the
/// EXPLAIN ANALYZE span stats).

/// Request phases a query passes through. Order is presentation order in
/// breakdowns; `kOther` is the implicit phase between explicit scopes.
enum class QueryPhase : uint8_t {
  kQueueWait = 0,   ///< Enqueued in the server request queue.
  kAdmission = 1,   ///< Admission control / submit bookkeeping.
  kPlan = 2,        ///< Plan construction + executor drive (non-attributed).
  kLabelDecode = 3, ///< Decoding compressed label buckets (unused today).
  kMerge = 4,       ///< TTL common-hub label merges.
  kBufferIo = 5,    ///< Buffer-pool miss servicing (modeled device I/O).
  kCallback = 6,    ///< Delivering the response callback.
  kOther = 7,       ///< Anything not covered by an explicit scope.
};
inline constexpr size_t kNumQueryPhases = 8;

/// Stable lowercase name ("queue_wait", "merge", ...).
const char* QueryPhaseName(QueryPhase phase);

/// Terminal outcome of a request.
enum class QueryOutcome : uint8_t {
  kOk = 0,        ///< Answered (possibly degraded via a circuit breaker).
  kShed = 1,      ///< Rejected at admission (cause: queue_full/headroom/...).
  kDeadline = 2,  ///< Deadline expired (cause: queue vs exec).
  kError = 3,     ///< Engine error (cause: status code name).
};
inline constexpr size_t kNumQueryOutcomes = 4;

/// Stable lowercase name ("ok", "shed", "deadline", "error").
const char* QueryOutcomeName(QueryOutcome outcome);

class Status;

/// Maps a finished request's Status to an outcome plus a cause string:
/// ok -> kOk, kDeadlineExceeded -> kDeadline/"exec" (mid-execution; queue
/// drops set their own cause), kOverloaded -> kShed/"shed", anything else
/// -> kError with the status code's short name ("io_error", ...). The
/// returned cause is a static string or nullptr (no detail).
QueryOutcome OutcomeForStatus(const Status& status, const char** cause);

/// Per-phase slices of one request. Wall nanoseconds plus the operation
/// counters charged while each phase was current. Fixed arrays (no heap)
/// so records are trivially copyable and ring memory is bounded.
struct PhaseBreakdown {
  uint64_t ns[kNumQueryPhases] = {};
  uint64_t io_ns[kNumQueryPhases] = {};  ///< Modeled device I/O charged.
  uint64_t label_decodes[kNumQueryPhases] = {};
  uint64_t label_comparisons[kNumQueryPhases] = {};
  uint64_t hubs_merged[kNumQueryPhases] = {};

  uint64_t total_ns() const {
    uint64_t t = 0;
    for (uint64_t v : ns) t += v;
    return t;
  }
};

/// One ring entry. Fixed size, trivially copyable: string-ish fields are
/// truncating char arrays so a full ring is a single bounded allocation.
struct QueryLogRecord {
  uint64_t seq = 0;       ///< Global append order (assigned by the log).
  uint64_t start_ns = 0;  ///< steady_clock ns when recording began.
  char type[12] = {};     ///< Query type name ("v2v_ea", "sql", ...).
  char set_name[24] = {}; ///< Target set for kNN/OTM, else empty.
  char cause[16] = {};    ///< Outcome detail ("queue_full", "exec", ...).
  int32_t s = -1;         ///< Source stop (-1 = n/a).
  int32_t g = -1;         ///< Goal stop.
  /// Departure/arrival time argument at full compute-tier width —
  /// a multi-day timestamp renders exactly in ptldb_slow_queries.
  EventTime t = EventTime::Invalid();
  EventTime t_end = EventTime::Invalid();  ///< Window end, else Invalid().
  int32_t k = -1;         ///< kNN k, else -1.
  QueryOutcome outcome = QueryOutcome::kOk;
  bool degraded = false;       ///< Served by the exact-v2v fallback.
  bool slow = false;           ///< Latency above the p99-derived threshold.
  bool trace_retained = false; ///< A trace was kept for this request.
  uint64_t latency_ns = 0;     ///< Always equals phases.total_ns().
  PhaseBreakdown phases;

  /// Truncating copy into a fixed char-array field.
  static void SetName(char* dst, size_t cap, const char* src) {
    std::strncpy(dst, src == nullptr ? "" : src, cap - 1);
    dst[cap - 1] = '\0';
  }
  void set_type(const char* v) { SetName(type, sizeof(type), v); }
  void set_set_name(const char* v) { SetName(set_name, sizeof(set_name), v); }
  void set_cause(const char* v) { SetName(cause, sizeof(cause), v); }
};
static_assert(std::is_trivially_copyable_v<QueryLogRecord>,
              "ring records must be trivially copyable (bounded memory)");

/// A trace kept by the tail sampler: the record's span tree rendered to
/// JSON (plus the full live QueryTrace tree when one was attached, e.g.
/// under EXPLAIN ANALYZE).
struct RetainedTrace {
  uint64_t seq = 0;
  char type[12] = {};
  char reason[12] = {};  ///< "slow", "shed", "deadline", "error", "sampled".
  uint64_t latency_ns = 0;
  std::string json;
};

struct QueryLogOptions {
  /// Master switch; also togglable at runtime via set_enabled().
  bool enabled = true;
  /// Total record capacity across all shards (bounded memory).
  size_t capacity = 4096;
  /// Ring shards; writers round-robin so concurrent appends rarely
  /// contend on one mutex. Clamped to [1, capacity].
  size_t shards = 4;
  /// Tail sampling: keep a trace for 1 in `sample_every` normal (fast,
  /// successful) requests. 0 disables the normal-request sample.
  uint64_t sample_every = 128;
  uint64_t sample_seed = 0;
  /// A request is "slow" when latency_ns exceeds
  ///   max(slow_floor_ns, slow_multiplier * p99)
  /// where p99 is re-derived from the log's own latency histogram every
  /// 64 appends (and only once >= 32 samples exist).
  uint64_t slow_floor_ns = 1'000'000;  // 1 ms
  double slow_multiplier = 2.0;
  /// Bounded retained-trace queue (oldest evicted first).
  size_t trace_capacity = 256;
};

/// Lock-sharded bounded ring of QueryLogRecords plus the tail-sampled
/// trace store. Appends are wait-short (one shard mutex + a trivially
/// copyable store); snapshots copy shard-by-shard and merge by seq, so
/// readers never block writers for long. All memory is allocated up
/// front: appending never grows the ring.
class QueryLog {
 public:
  /// `metrics` may be null (no attribution counters are published then).
  explicit QueryLog(const QueryLogOptions& options,
                    MetricsRegistry* metrics = nullptr);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Runtime toggle: the overhead benchmark flips this on one database
  /// instead of rebuilding, so on/off phases share every other condition.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  const QueryLogOptions& options() const { return options_; }

  /// Appends one finished record: assigns `seq`, classifies `slow`,
  /// decides trace retention, publishes `phase.*` / `querylog.*` /
  /// `traces.retained.*` metrics, and stores the record in its ring
  /// shard. `trace_json` (may be empty) is a full QueryTrace tree to
  /// embed if the trace is retained. Returns the assigned seq, or 0 if
  /// the log is disabled (nothing stored or counted).
  uint64_t Append(QueryLogRecord rec, const std::string& trace_json = "");

  /// All live records, ordered by seq (oldest first).
  std::vector<QueryLogRecord> SnapshotRecords() const;
  /// All retained traces, ordered by seq (oldest first).
  std::vector<RetainedTrace> SnapshotTraces() const;

  /// Current slow classification threshold in ns.
  uint64_t slow_threshold_ns() const {
    return slow_threshold_ns_.load(std::memory_order_relaxed);
  }

  /// Renders a record's phase breakdown (and args/outcome) as a span-tree
  /// JSON object; `full_trace_json` is embedded under "trace" when
  /// non-empty. Exposed for tests.
  static std::string TraceJson(const QueryLogRecord& rec,
                               const char* reason,
                               const std::string& full_trace_json);

 private:
  struct Shard {
    /// Shard latch: leaf lock, held only to copy one record in or to
    /// copy the shard out for a snapshot.
    mutable Mutex mu;
    std::vector<QueryLogRecord> ring PTLDB_GUARDED_BY(mu);
    size_t next PTLDB_GUARDED_BY(mu) = 0;
    size_t filled PTLDB_GUARDED_BY(mu) = 0;
  };

  void PublishMetrics(const QueryLogRecord& rec);
  void RetainTrace(const QueryLogRecord& rec, const char* reason,
                   const std::string& full_trace_json);

  QueryLogOptions options_;
  MetricsRegistry* metrics_;
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_seq_{1};
  size_t per_shard_cap_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// The log's own latency histogram, source of the p99-derived slow
  /// threshold (refreshed every 64 appends).
  Histogram latency_;
  std::atomic<uint64_t> slow_threshold_ns_;

  /// Retained-trace queue latch: leaf lock, push/evict/copy only.
  mutable Mutex trace_mu_;
  std::deque<RetainedTrace> traces_ PTLDB_GUARDED_BY(trace_mu_);

  // Pre-resolved metric handles (null when metrics_ == nullptr).
  Histogram* phase_ns_[kNumQueryPhases] = {};
  Counter* phase_io_ns_[kNumQueryPhases] = {};
  Counter* phase_label_decodes_[kNumQueryPhases] = {};
  Counter* phase_label_comparisons_[kNumQueryPhases] = {};
  Counter* phase_hubs_merged_[kNumQueryPhases] = {};
  Counter* records_ = nullptr;
  Counter* latency_total_ns_ = nullptr;
  Counter* slow_ = nullptr;
  Counter* outcome_[kNumQueryOutcomes] = {};
  Counter* retained_slow_ = nullptr;
  Counter* retained_shed_ = nullptr;
  Counter* retained_deadline_ = nullptr;
  Counter* retained_error_ = nullptr;
  Counter* retained_sampled_ = nullptr;
  Counter* trace_evictions_ = nullptr;
};

class RequestRecorder;

namespace internal {
/// The calling thread's active recorder, if any. Declared here so the
/// inactive-path cost of ScopedQueryPhase is one thread-local load.
/// constinit in both declarations tells every includer the variable needs
/// no dynamic TLS initializer, so reads go straight to the slot instead
/// of through GCC's TLS init wrapper (which UBSan flags as a null load).
extern constinit thread_local RequestRecorder* g_current_recorder;
}  // namespace internal

/// Stack-scoped builder of one QueryLogRecord, installed in a thread-local
/// slot (mirroring ScopedQueryContext) so engine code can attribute work
/// to the current request without plumbing a handle through every layer.
///
/// Ownership rule: whoever owns the request boundary installs the
/// recorder — the server around Dispatch, or the facade's Timed() when no
/// recorder is current (direct library use). A second construction while
/// one is installed yields an inactive recorder, so nested queries (e.g.
/// per-target v2v fallback inside a degraded kNN) never double-record.
///
/// The recorder is single-threaded by contract, like the query itself:
/// phase switches snapshot the calling thread's LocalQueryCounters.
class RequestRecorder {
 public:
  /// Active iff `log` is non-null+enabled and no recorder is current.
  explicit RequestRecorder(QueryLog* log);
  /// Uninstalls; appends a record with outcome kError / cause
  /// "abandoned" if Finish was never called (exactly-once backstop).
  ~RequestRecorder();
  RequestRecorder(const RequestRecorder&) = delete;
  RequestRecorder& operator=(const RequestRecorder&) = delete;

  static RequestRecorder* Current() { return internal::g_current_recorder; }

  bool active() const { return log_ != nullptr; }
  /// The record under construction (args, type, flags are caller-set).
  QueryLogRecord& record() { return rec_; }

  /// Adds externally measured time to a phase (queue wait measured by the
  /// server before the recorder existed). Counts toward latency_ns.
  void ChargeExternal(QueryPhase phase, uint64_t ns) {
    if (log_ != nullptr) rec_.phases.ns[static_cast<size_t>(phase)] += ns;
  }

  /// Makes `phase` current: wall time and LocalQueryCounters deltas since
  /// the previous switch are charged to the outgoing phase. Returns the
  /// outgoing phase (for ScopedQueryPhase restore).
  QueryPhase SwitchPhase(QueryPhase phase);

  /// Attaches a full QueryTrace JSON tree to embed if a trace is
  /// retained for this request (EXPLAIN ANALYZE path).
  void AttachTraceJson(std::string json) { trace_json_ = std::move(json); }

  /// Closes the record: charges the open phase, sets latency_ns to the
  /// exact phase sum, and appends to the log. Idempotent; the first call
  /// wins. Returns the assigned seq (0 if inactive/disabled).
  uint64_t Finish(QueryOutcome outcome, const char* cause = nullptr);

 private:
  QueryLog* log_ = nullptr;
  QueryLogRecord rec_;
  QueryPhase current_ = QueryPhase::kOther;
  uint64_t phase_start_ns_ = 0;
  LocalQueryCounters base_;
  bool finished_ = false;
  std::string trace_json_;
};

/// RAII phase scope. When no recorder is installed on this thread the
/// cost is one thread-local load and a branch, so always-on hooks in the
/// engine hot paths (label decode, merges, buffer-pool misses) stay
/// near-free for un-recorded work.
class ScopedQueryPhase {
 public:
  explicit ScopedQueryPhase(QueryPhase phase) {
    RequestRecorder* r = RequestRecorder::Current();
    if (r != nullptr && r->active()) {
      recorder_ = r;
      previous_ = r->SwitchPhase(phase);
    }
  }
  ~ScopedQueryPhase() {
    if (recorder_ != nullptr) recorder_->SwitchPhase(previous_);
  }
  ScopedQueryPhase(const ScopedQueryPhase&) = delete;
  ScopedQueryPhase& operator=(const ScopedQueryPhase&) = delete;

 private:
  RequestRecorder* recorder_ = nullptr;
  QueryPhase previous_ = QueryPhase::kOther;
};

}  // namespace ptldb

#endif  // PTLDB_COMMON_QUERY_LOG_H_
