#ifndef PTLDB_COMMON_THREAD_ANNOTATIONS_H_
#define PTLDB_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <mutex>
#include <condition_variable>

/// Clang Thread Safety Analysis annotations (see DESIGN.md §9,
/// "Concurrency contracts & static analysis").
///
/// Every locking discipline in PTLDB — which mutex guards which field,
/// which methods require a latch already held — is written down with
/// these macros so that `clang -Wthread-safety -Werror=thread-safety`
/// rejects violations at compile time. Under non-Clang compilers (the
/// default GCC build) they expand to nothing and cost nothing.
///
/// Lock hierarchy (acquire in this order, document exceptions):
///   facade build_mu_ -> facade sets_mu_ -> buffer-pool shard latch
///     -> device mutex
/// Leaves (nothing is acquired under them): the engine catalog latch,
/// metrics/trace/thread-pool mutexes.
/// No PTLDB mutex may be held while calling back into user code.
///
/// Use the `Mutex` / `MutexLock` / `CondVar` wrappers below rather than
/// naked `std::mutex` / `std::lock_guard`: the wrappers carry the
/// capability annotations the analysis needs, and scripts/ptldb_lint.py
/// rejects naked standard-library mutexes outside this header.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(guarded_by)
#define PTLDB_THREAD_ANNOTATION_(x) __attribute__((x))
#endif
#endif
#ifndef PTLDB_THREAD_ANNOTATION_
#define PTLDB_THREAD_ANNOTATION_(x)  // Expands to nothing off-Clang.
#endif

/// A type that acts as a lock (applied to the Mutex wrapper class).
#define PTLDB_CAPABILITY(x) PTLDB_THREAD_ANNOTATION_(capability(x))

/// RAII type that acquires on construction / releases on destruction.
#define PTLDB_SCOPED_CAPABILITY PTLDB_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only while holding the given mutex.
#define PTLDB_GUARDED_BY(x) PTLDB_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the given mutex.
#define PTLDB_PT_GUARDED_BY(x) PTLDB_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function that must be called with the given mutex(es) already held.
#define PTLDB_REQUIRES(...) \
  PTLDB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function that must NOT be called with the given mutex(es) held
/// (it acquires them itself; calling locked would deadlock).
#define PTLDB_EXCLUDES(...) PTLDB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function that acquires / releases the given capability.
#define PTLDB_ACQUIRE(...) \
  PTLDB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define PTLDB_RELEASE(...) \
  PTLDB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define PTLDB_TRY_ACQUIRE(...) \
  PTLDB_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Documents lock-acquisition order between two mutexes.
#define PTLDB_ACQUIRED_BEFORE(...) \
  PTLDB_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define PTLDB_ACQUIRED_AFTER(...) \
  PTLDB_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Function returning a reference to the given capability.
#define PTLDB_RETURN_CAPABILITY(x) PTLDB_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function's locking is correct but beyond the
/// analysis (e.g. locks chosen through runtime indirection). Every use
/// must carry a comment saying why.
#define PTLDB_NO_THREAD_SAFETY_ANALYSIS \
  PTLDB_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace ptldb {

class CondVar;

/// Annotation-friendly wrapper over std::mutex. Identical cost (the
/// wrapper is exactly one std::mutex); the only addition is the
/// capability attribute that lets Clang check GUARDED_BY contracts.
class PTLDB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PTLDB_ACQUIRE() { mu_.lock(); }
  void Unlock() PTLDB_RELEASE() { mu_.unlock(); }
  bool TryLock() PTLDB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock on a Mutex, the project's lock_guard/unique_lock. Supports
/// mid-scope Unlock()/Lock() pairs (the buffer pool's yield-off-latch
/// path); the destructor releases only if still held.
class PTLDB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PTLDB_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() PTLDB_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// Releases early (e.g. to yield before retrying). Must currently hold.
  void Unlock() PTLDB_RELEASE() { lock_.unlock(); }
  /// Re-acquires after an early Unlock().
  void Lock() PTLDB_ACQUIRE() { lock_.lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to the Mutex wrapper. Wait() atomically
/// releases and re-acquires the lock, so from the caller's (and the
/// analysis') point of view the capability is held across the call;
/// guarded predicate fields must be re-checked in a `while` loop around
/// Wait() rather than inside a lambda (the analysis does not propagate
/// lock state into lambda bodies).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  /// Bounded waits for request-path code: scripts/ptldb_lint.py forbids
  /// the unbounded Wait() in src/server/ and the executor — a worker
  /// parked on an unbounded wait cannot observe a deadline or a shutdown
  /// that the notifying side lost a race on. Returns false on timeout.
  bool WaitFor(MutexLock& lock, std::chrono::nanoseconds timeout) {
    return cv_.wait_for(lock.lock_, timeout) == std::cv_status::no_timeout;
  }
  bool WaitUntil(MutexLock& lock,
                 std::chrono::steady_clock::time_point deadline) {
    return cv_.wait_until(lock.lock_, deadline) == std::cv_status::no_timeout;
  }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ptldb

#endif  // PTLDB_COMMON_THREAD_ANNOTATIONS_H_
