#include "common/query_log.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/status.h"

namespace ptldb {

namespace internal {
constinit thread_local RequestRecorder* g_current_recorder = nullptr;
}  // namespace internal

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// splitmix64 finalizer: the 1-in-N trace sample must be seed-stable and
// uncorrelated with request order, so it hashes the seq instead of
// taking `seq % N` (which would alias with any periodic workload).
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

constexpr const char* kPhaseNames[kNumQueryPhases] = {
    "queue_wait", "admission",  "plan",     "label_decode",
    "merge",      "buffer_io",  "callback", "other"};

constexpr const char* kOutcomeNames[kNumQueryOutcomes] = {"ok", "shed",
                                                          "deadline", "error"};

}  // namespace

const char* QueryPhaseName(QueryPhase phase) {
  return kPhaseNames[static_cast<size_t>(phase)];
}

const char* QueryOutcomeName(QueryOutcome outcome) {
  return kOutcomeNames[static_cast<size_t>(outcome)];
}

QueryOutcome OutcomeForStatus(const Status& status, const char** cause) {
  *cause = nullptr;
  switch (status.code()) {
    case Status::Code::kOk:
      return QueryOutcome::kOk;
    case Status::Code::kDeadlineExceeded:
      *cause = "exec";
      return QueryOutcome::kDeadline;
    case Status::Code::kOverloaded:
      *cause = "shed";
      return QueryOutcome::kShed;
    case Status::Code::kInvalidArgument:
      *cause = "invalid_arg";
      break;
    case Status::Code::kNotFound:
      *cause = "not_found";
      break;
    case Status::Code::kCorruption:
      *cause = "corruption";
      break;
    case Status::Code::kIoError:
      *cause = "io_error";
      break;
    case Status::Code::kUnsupported:
      *cause = "unsupported";
      break;
    case Status::Code::kInternal:
      *cause = "internal";
      break;
  }
  return QueryOutcome::kError;
}

QueryLog::QueryLog(const QueryLogOptions& options, MetricsRegistry* metrics)
    : options_(options),
      metrics_(metrics),
      enabled_(options.enabled),
      slow_threshold_ns_(options.slow_floor_ns) {
  if (options_.capacity == 0) options_.capacity = 1;
  options_.shards = std::clamp<size_t>(options_.shards, 1, options_.capacity);
  per_shard_cap_ = (options_.capacity + options_.shards - 1) / options_.shards;
  for (size_t i = 0; i < options_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    {
      // Pre-size the ring once; appends never allocate.
      MutexLock lock(shard->mu);
      shard->ring.resize(per_shard_cap_);
    }
    shards_.push_back(std::move(shard));
  }
  if (metrics_ == nullptr) return;
  for (size_t p = 0; p < kNumQueryPhases; ++p) {
    const std::string base = std::string("phase.") + kPhaseNames[p];
    phase_ns_[p] = metrics_->histogram(base + ".ns");
    phase_io_ns_[p] = metrics_->counter(base + ".io_ns");
    phase_label_decodes_[p] = metrics_->counter(base + ".label_decodes");
    phase_label_comparisons_[p] =
        metrics_->counter(base + ".label_comparisons");
    phase_hubs_merged_[p] = metrics_->counter(base + ".hubs_merged");
  }
  records_ = metrics_->counter("querylog.records");
  latency_total_ns_ = metrics_->counter("querylog.latency_ns");
  slow_ = metrics_->counter("querylog.slow");
  for (size_t o = 0; o < kNumQueryOutcomes; ++o) {
    outcome_[o] =
        metrics_->counter(std::string("querylog.outcome.") + kOutcomeNames[o]);
  }
  retained_slow_ = metrics_->counter("traces.retained.slow");
  retained_shed_ = metrics_->counter("traces.retained.shed");
  retained_deadline_ = metrics_->counter("traces.retained.deadline");
  retained_error_ = metrics_->counter("traces.retained.error");
  retained_sampled_ = metrics_->counter("traces.retained.sampled");
  trace_evictions_ = metrics_->counter("querylog.trace_evictions");
}

uint64_t QueryLog::Append(QueryLogRecord rec, const std::string& trace_json) {
  if (!enabled()) return 0;
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  rec.seq = seq;
  latency_.Record(rec.latency_ns);
  if (seq % 64 == 0) {
    // Refresh the slow threshold from our own latency distribution.
    // Amortized: a Summary() walk every 64 appends. The p99 clause only
    // engages once the distribution has some mass; before that the
    // floor alone classifies.
    const HistogramSummary s = latency_.Summary();
    uint64_t threshold = options_.slow_floor_ns;
    if (s.count >= 32) {
      threshold = std::max<uint64_t>(
          threshold,
          static_cast<uint64_t>(options_.slow_multiplier * s.p99));
    }
    slow_threshold_ns_.store(threshold, std::memory_order_relaxed);
  }
  rec.slow =
      rec.latency_ns > slow_threshold_ns_.load(std::memory_order_relaxed);

  // Tail sampling: every non-ok or slow request keeps its trace; a seeded
  // 1-in-N hash of the seq samples the normal population.
  const char* reason = nullptr;
  Counter* reason_counter = nullptr;
  switch (rec.outcome) {
    case QueryOutcome::kShed:
      reason = "shed";
      reason_counter = retained_shed_;
      break;
    case QueryOutcome::kDeadline:
      reason = "deadline";
      reason_counter = retained_deadline_;
      break;
    case QueryOutcome::kError:
      reason = "error";
      reason_counter = retained_error_;
      break;
    case QueryOutcome::kOk:
      if (rec.slow) {
        reason = "slow";
        reason_counter = retained_slow_;
      } else if (options_.sample_every > 0 &&
                 Mix64(seq ^ options_.sample_seed) % options_.sample_every ==
                     0) {
        reason = "sampled";
        reason_counter = retained_sampled_;
      }
      break;
  }
  rec.trace_retained = reason != nullptr;

  PublishMetrics(rec);
  if (reason != nullptr) {
    if (reason_counter != nullptr) reason_counter->Add();
    RetainTrace(rec, reason, trace_json);
  }

  Shard& shard = *shards_[seq % shards_.size()];
  MutexLock lock(shard.mu);
  shard.ring[shard.next] = rec;
  shard.next = (shard.next + 1) % per_shard_cap_;
  if (shard.filled < per_shard_cap_) ++shard.filled;
  return seq;
}

void QueryLog::PublishMetrics(const QueryLogRecord& rec) {
  if (metrics_ == nullptr) return;
  records_->Add();
  latency_total_ns_->Add(rec.latency_ns);
  outcome_[static_cast<size_t>(rec.outcome)]->Add();
  if (rec.slow) slow_->Add();
  for (size_t p = 0; p < kNumQueryPhases; ++p) {
    // Zero phases are skipped entirely: sums stay exact (adding zero
    // changes nothing) and idle phases do not inflate histogram counts.
    if (rec.phases.ns[p] != 0) phase_ns_[p]->Record(rec.phases.ns[p]);
    if (rec.phases.io_ns[p] != 0) phase_io_ns_[p]->Add(rec.phases.io_ns[p]);
    if (rec.phases.label_decodes[p] != 0) {
      phase_label_decodes_[p]->Add(rec.phases.label_decodes[p]);
    }
    if (rec.phases.label_comparisons[p] != 0) {
      phase_label_comparisons_[p]->Add(rec.phases.label_comparisons[p]);
    }
    if (rec.phases.hubs_merged[p] != 0) {
      phase_hubs_merged_[p]->Add(rec.phases.hubs_merged[p]);
    }
  }
}

void QueryLog::RetainTrace(const QueryLogRecord& rec, const char* reason,
                           const std::string& full_trace_json) {
  RetainedTrace t;
  t.seq = rec.seq;
  QueryLogRecord::SetName(t.type, sizeof(t.type), rec.type);
  QueryLogRecord::SetName(t.reason, sizeof(t.reason), reason);
  t.latency_ns = rec.latency_ns;
  t.json = TraceJson(rec, reason, full_trace_json);
  MutexLock lock(trace_mu_);
  while (traces_.size() >= options_.trace_capacity && !traces_.empty()) {
    traces_.pop_front();
    if (trace_evictions_ != nullptr) trace_evictions_->Add();
  }
  if (options_.trace_capacity > 0) traces_.push_back(std::move(t));
}

std::string QueryLog::TraceJson(const QueryLogRecord& rec, const char* reason,
                                const std::string& full_trace_json) {
  std::string out = "{";
  out += "\"seq\": " + std::to_string(rec.seq);
  out += ", \"type\": \"" + JsonEscape(rec.type) + "\"";
  out += ", \"reason\": \"" + JsonEscape(reason) + "\"";
  out += ", \"outcome\": \"" + std::string(QueryOutcomeName(rec.outcome)) +
         "\"";
  out += ", \"cause\": \"" + JsonEscape(rec.cause) + "\"";
  out += std::string(", \"degraded\": ") + (rec.degraded ? "true" : "false");
  out += ", \"latency_ns\": " + std::to_string(rec.latency_ns);
  out += ", \"args\": {\"s\": " + std::to_string(rec.s) +
         ", \"g\": " + std::to_string(rec.g) +
         ", \"t\": " + std::to_string(rec.t.raw_seconds()) +
         ", \"t_end\": " + std::to_string(rec.t_end.raw_seconds()) +
         ", \"k\": " + std::to_string(rec.k) + ", \"set\": \"" +
         JsonEscape(rec.set_name) + "\"}";
  out += ", \"spans\": [";
  bool first = true;
  for (size_t p = 0; p < kNumQueryPhases; ++p) {
    const PhaseBreakdown& ph = rec.phases;
    if (ph.ns[p] == 0 && ph.io_ns[p] == 0 && ph.label_decodes[p] == 0 &&
        ph.label_comparisons[p] == 0 && ph.hubs_merged[p] == 0) {
      continue;
    }
    if (!first) out += ", ";
    first = false;
    out += "{\"name\": \"" + std::string(kPhaseNames[p]) + "\"";
    out += ", \"ns\": " + std::to_string(ph.ns[p]);
    if (ph.io_ns[p] != 0) out += ", \"io_ns\": " + std::to_string(ph.io_ns[p]);
    if (ph.label_decodes[p] != 0) {
      out += ", \"label_decodes\": " + std::to_string(ph.label_decodes[p]);
    }
    if (ph.label_comparisons[p] != 0) {
      out +=
          ", \"label_comparisons\": " + std::to_string(ph.label_comparisons[p]);
    }
    if (ph.hubs_merged[p] != 0) {
      out += ", \"hubs_merged\": " + std::to_string(ph.hubs_merged[p]);
    }
    out += "}";
  }
  out += "]";
  if (!full_trace_json.empty()) out += ", \"trace\": " + full_trace_json;
  out += "}";
  return out;
}

std::vector<QueryLogRecord> QueryLog::SnapshotRecords() const {
  std::vector<QueryLogRecord> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // Oldest-first within the shard: the ring wraps at `next`.
    const size_t start =
        (shard->next + per_shard_cap_ - shard->filled) % per_shard_cap_;
    for (size_t i = 0; i < shard->filled; ++i) {
      out.push_back(shard->ring[(start + i) % per_shard_cap_]);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const QueryLogRecord& a, const QueryLogRecord& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<RetainedTrace> QueryLog::SnapshotTraces() const {
  MutexLock lock(trace_mu_);
  return {traces_.begin(), traces_.end()};
}

RequestRecorder::RequestRecorder(QueryLog* log) {
  if (log == nullptr || !log->enabled() ||
      internal::g_current_recorder != nullptr) {
    return;
  }
  log_ = log;
  internal::g_current_recorder = this;
  phase_start_ns_ = NowNs();
  rec_.start_ns = phase_start_ns_;
  base_ = ThisThreadQueryCounters();
}

RequestRecorder::~RequestRecorder() {
  if (log_ != nullptr && !finished_) {
    // Exactly-once backstop: a recorder destroyed without Finish (early
    // return, exception unwind) still leaves a record.
    Finish(QueryOutcome::kError, "abandoned");
  }
  if (internal::g_current_recorder == this) {
    internal::g_current_recorder = nullptr;
  }
}

QueryPhase RequestRecorder::SwitchPhase(QueryPhase phase) {
  if (log_ == nullptr || finished_) return phase;
  const uint64_t now = NowNs();
  const LocalQueryCounters& cur = ThisThreadQueryCounters();
  const size_t i = static_cast<size_t>(current_);
  rec_.phases.ns[i] += now - phase_start_ns_;
  rec_.phases.io_ns[i] += cur.modeled_io_ns - base_.modeled_io_ns;
  rec_.phases.label_decodes[i] += cur.label_decodes - base_.label_decodes;
  rec_.phases.label_comparisons[i] +=
      cur.label_comparisons - base_.label_comparisons;
  rec_.phases.hubs_merged[i] += cur.hubs_merged - base_.hubs_merged;
  phase_start_ns_ = now;
  base_ = cur;
  const QueryPhase previous = current_;
  current_ = phase;
  return previous;
}

uint64_t RequestRecorder::Finish(QueryOutcome outcome, const char* cause) {
  if (log_ == nullptr || finished_) return 0;
  SwitchPhase(QueryPhase::kOther);  // Charge the still-open phase.
  finished_ = true;
  rec_.outcome = outcome;
  if (cause != nullptr) rec_.set_cause(cause);
  rec_.latency_ns = rec_.phases.total_ns();
  internal::g_current_recorder = nullptr;
  return log_->Append(rec_, trace_json_);
}

}  // namespace ptldb
