#ifndef PTLDB_COMMON_QUERY_CONTEXT_H_
#define PTLDB_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/status.h"

namespace ptldb {

/// Per-request deadline and cancellation state, propagated to the storage
/// engine through a thread-local slot (a query runs on one thread, the
/// same single-thread contract LocalQueryCounters relies on).
///
/// The serving layer (src/server) installs a context around each query it
/// executes; long-running engine loops — buffer-pool fetches, executor
/// materialization, TTL label scans, the per-target degradation fallback —
/// call CheckQueryCheckpoint() and unwind with kDeadlineExceeded when the
/// deadline has passed or the request was cancelled. Unwinding reuses the
/// ordinary Status error path, so every PageGuard pin and operator is
/// destroyed exactly as on a storage fault: a timed-out query leaves no
/// pinned frames and no half-updated state behind.
///
/// A context is owned by the request (the server's worker keeps it on its
/// stack); Cancel() may be called from any thread (it is one atomic
/// store), which is how a queued request is aborted after its deadline
/// passes without waiting for a worker to pick it up.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  /// No deadline, never cancelled (checkpoints are no-ops).
  QueryContext() = default;

  static QueryContext WithDeadline(Clock::time_point deadline) {
    QueryContext ctx;
    ctx.has_deadline_ = true;
    ctx.deadline_ = deadline;
    return ctx;
  }
  static QueryContext WithTimeout(std::chrono::nanoseconds timeout) {
    return WithDeadline(Clock::now() + timeout);
  }

  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;
  QueryContext(QueryContext&& other) noexcept
      : has_deadline_(other.has_deadline_),
        deadline_(other.deadline_),
        cancelled_(other.cancelled_.load(std::memory_order_relaxed)) {}

  bool has_deadline() const { return has_deadline_; }
  Clock::time_point deadline() const { return deadline_; }

  /// Aborts the request: the next checkpoint on the executing thread
  /// returns non-OK. Safe from any thread, idempotent.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Non-OK (kDeadlineExceeded) when the deadline has passed or Cancel()
  /// was called. Reads the clock, so hot loops should go through the
  /// decimated CheckQueryCheckpoint() instead.
  Status Check() const {
    if (cancelled()) {
      return Status::DeadlineExceeded("query cancelled");
    }
    if (has_deadline_ && Clock::now() >= deadline_) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::Ok();
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
  std::atomic<bool> cancelled_{false};
};

/// The context installed on the calling thread, or nullptr outside a
/// served request. Engine code reads it only through
/// CheckQueryCheckpoint(); the server installs it with
/// ScopedQueryContext.
const QueryContext* CurrentQueryContext();

/// Installs `ctx` as the calling thread's current context for the scope;
/// restores the previous context (normally nullptr — served queries do
/// not nest) on destruction. Pass nullptr to run a scope context-free.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const QueryContext* ctx);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  const QueryContext* previous_;
};

/// Cooperative cancellation checkpoint for engine loops. With no context
/// installed this is one thread-local load; with a context it checks the
/// cancel flag every call but reads the clock only on the first call after
/// ScopedQueryContext installed it and on every kCheckpointStride-th call
/// after that, so per-row loops can afford it. A request therefore runs at
/// most kCheckpointStride - 1 checkpoints past its deadline. Returns
/// kDeadlineExceeded when the request should stop.
Status CheckQueryCheckpoint();

/// Clock reads happen on checkpoints 0, stride, 2*stride, ... of each
/// request (cancel-flag checks are unconditional). Exposed for tests
/// asserting the grace bound.
inline constexpr uint32_t kCheckpointStride = 32;

}  // namespace ptldb

#endif  // PTLDB_COMMON_QUERY_CONTEXT_H_
