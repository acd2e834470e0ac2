#include "common/query_context.h"

namespace ptldb {

namespace {

/// The request context of the calling thread. One query runs on one
/// thread (the LocalQueryCounters contract), so a plain thread_local is
/// the whole propagation mechanism — no signature changes through the
/// operator tree.
thread_local const QueryContext* tls_query_context = nullptr;
/// Checkpoints since the current context was installed. Each request
/// starts at 0, so it reads the clock on its first checkpoint and on every
/// kCheckpointStride-th after it, whatever earlier requests left behind.
thread_local uint32_t tls_checkpoint_calls = 0;

}  // namespace

const QueryContext* CurrentQueryContext() { return tls_query_context; }

ScopedQueryContext::ScopedQueryContext(const QueryContext* ctx)
    : previous_(tls_query_context) {
  tls_query_context = ctx;
  tls_checkpoint_calls = 0;
}

ScopedQueryContext::~ScopedQueryContext() { tls_query_context = previous_; }

Status CheckQueryCheckpoint() {
  const QueryContext* ctx = tls_query_context;
  if (ctx == nullptr) return Status::Ok();
  if (ctx->cancelled()) {
    return Status::DeadlineExceeded("query cancelled");
  }
  if (!ctx->has_deadline()) return Status::Ok();
  if (tls_checkpoint_calls++ % kCheckpointStride != 0) return Status::Ok();
  if (QueryContext::Clock::now() >= ctx->deadline()) {
    return Status::DeadlineExceeded("query deadline exceeded");
  }
  return Status::Ok();
}

}  // namespace ptldb
