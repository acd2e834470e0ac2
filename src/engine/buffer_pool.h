#ifndef PTLDB_ENGINE_BUFFER_POOL_H_
#define PTLDB_ENGINE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/query_context.h"
#include "common/query_log.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "engine/device.h"
#include "engine/page.h"
#include "engine/pager.h"

namespace ptldb {

/// Bounded-retry schedule for transient device errors: up to
/// `max_attempts` reads, waiting initial_backoff_ns, 2x, 4x, ... between
/// attempts. The wait is charged to the device's modeled clock (virtual
/// time), never slept for real.
struct RetryPolicy {
  uint32_t max_attempts = 4;
  uint64_t initial_backoff_ns = 100 * 1000;  // 100 us
};

class BufferPool;

/// RAII pin on a buffer-pool frame. While a guard is alive the frame's
/// bytes are immutable and the frame cannot be evicted, so the page
/// pointer is valid for exactly the guard's lifetime — there is no
/// "valid until evicted" raw-pointer contract anymore.
///
/// Guards are move-only; destroying (or Release()-ing) one unpins the
/// frame with a release store that the evictor pairs with an acquire
/// load under the shard latch, so the last reader's byte accesses
/// happen-before the frame is reused.
///
/// Hold guards briefly: scoped to one page read, never across calls that
/// may fetch further pages while the pool is near capacity (a thread
/// that pins more frames than one shard holds cannot make progress and
/// Fetch will fail loudly after a bounded wait).
///
/// [[nodiscard]]: a discarded guard would pin-then-unpin without the
/// caller ever holding the page — always a bug at the call site.
class [[nodiscard]] PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept
      : pins_(other.pins_), page_(other.page_) {
    other.pins_ = nullptr;
    other.page_ = nullptr;
  }
  PageGuard& operator=(PageGuard&& other) noexcept {
    if (this != &other) {
      Release();
      pins_ = other.pins_;
      page_ = other.page_;
      other.pins_ = nullptr;
      other.page_ = nullptr;
    }
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  const Page& operator*() const { return *page_; }
  const Page* operator->() const { return page_; }
  const Page* get() const { return page_; }
  explicit operator bool() const { return page_ != nullptr; }

  /// Unpins early (idempotent). The page pointer is dead afterwards.
  void Release() {
    if (pins_ != nullptr) {
      pins_->fetch_sub(1, std::memory_order_release);
      pins_ = nullptr;
      page_ = nullptr;
    }
  }

 private:
  friend class BufferPool;
  /// The pool takes the pin (under the shard latch) before constructing.
  PageGuard(std::atomic<uint32_t>* pins, const Page* page)
      : pins_(pins), page_(page) {}

  std::atomic<uint32_t>* pins_ = nullptr;
  const Page* page_ = nullptr;
};

/// Sharded LRU page cache in front of a StorageDevice, playing the role
/// of PostgreSQL's shared buffers. The pool owns verified *copies* of
/// pages: the PageStore is the authoritative disk image, the device is
/// the (possibly faulty) wire, and only frames whose CRC-32C matches the
/// page's stamp are cached and handed out. DropCaches() models the
/// paper's per-experiment server restart + OS cache drop.
///
/// Concurrency: frames are striped over independent shards by a
/// multiplicative hash of the page id; each shard has its own latch,
/// LRU list, resident map and quarantine set, so concurrent queries on
/// different pages no longer serialize on one mutex. Fetch returns a
/// PageGuard pin; eviction skips pinned frames and fails loudly (after
/// a bounded yield-wait) when every frame of a shard is pinned, instead
/// of silently invalidating a live pointer.
class BufferPool {
 public:
  /// `capacity_pages` caps total residency across all shards; the paper
  /// configures 8 GiB shared buffers (1M pages), far above its dataset
  /// sizes, so the default is effectively "everything fits once touched".
  ///
  /// `num_shards == 0` picks automatically: one shard per
  /// kMinPagesPerShard pages of capacity, at most kDefaultMaxShards.
  /// Tiny pools (unit tests asserting exact LRU order) thus collapse to
  /// a single shard with strict global LRU; production-sized pools get
  /// enough shards to stop serializing concurrent queries.
  BufferPool(PageStore* store, StorageDevice* device,
             uint64_t capacity_pages = 1u << 20, uint32_t num_shards = 0)
      : store_(store), device_(device), capacity_(capacity_pages) {
    if (capacity_ == 0) capacity_ = 1;
    uint32_t shards = num_shards;
    if (shards == 0) {
      shards = static_cast<uint32_t>(capacity_ / kMinPagesPerShard);
      if (shards < 1) shards = 1;
      if (shards > kDefaultMaxShards) shards = kDefaultMaxShards;
    }
    // Every shard needs at least one frame of budget.
    if (shards > capacity_) shards = static_cast<uint32_t>(capacity_);
    shards_ = std::vector<Shard>(shards);
    for (uint32_t s = 0; s < shards; ++s) {
      shards_[s].capacity = capacity_ / shards + (s < capacity_ % shards);
    }
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Reads a page through the cache; charges the device on a miss and
  /// verifies the page's checksum stamp on every delivered frame.
  /// Transient device errors are retried with bounded exponential backoff
  /// (charged as modeled wait time); a page that repeatedly fails
  /// verification is quarantined and every later Fetch of it returns
  /// kCorruption without touching the device.
  ///
  /// The returned PageGuard pins the frame: the page stays resident and
  /// its bytes stay valid until the guard is destroyed. If a miss finds
  /// every frame of the target shard pinned, Fetch yields briefly for a
  /// pin to clear and then fails with kInternal ("shard exhausted")
  /// rather than evicting a page somebody is still reading.
  ///
  /// Thread-safe: per-shard latches; the device guards its own access
  /// state. Stat counters are readable without any latch.
  Result<PageGuard> Fetch(PageId id) {
    Shard& shard = shards_[ShardIndex(id)];
    for (uint32_t wait = 0;; ++wait) {
      // Cooperative cancellation checkpoint: every page a query touches
      // funnels through Fetch, so a request whose deadline expired (or
      // that the server cancelled in-queue) unwinds here before pinning
      // another frame or charging the device — including each pass of
      // the all-frames-pinned yield loop below, which must not outlive
      // the request's deadline either. Outside a served request this is
      // one thread-local load (see common/query_context.h).
      PTLDB_RETURN_IF_ERROR(CheckQueryCheckpoint());
      MutexLock latch(shard.mu);
      const auto it = shard.resident.find(id);
      if (it != shard.resident.end()) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        shard.hits.fetch_add(1, std::memory_order_relaxed);
        return Pin(*it->second);
      }
      if (shard.quarantined.count(id) > 0) {
        return Status::Corruption("page " + std::to_string(id) +
                                  " is quarantined");
      }
      if (id >= store_->num_pages()) {
        return Status::Corruption("page id " + std::to_string(id) +
                                  " beyond end of store (" +
                                  std::to_string(store_->num_pages()) +
                                  " pages)");
      }
      // A miss costs a device read, far more than a clock read, so it
      // checks the deadline every time instead of on the strided schedule
      // of the loop checkpoints: a query whose few fetches are all misses
      // still stops within one read of its deadline.
      if (const QueryContext* ctx = CurrentQueryContext()) {
        PTLDB_RETURN_IF_ERROR(ctx->Check());
      }
      // Make room before reading: evict from the LRU tail, skipping
      // pinned frames. If every frame is pinned the pins belong to
      // in-flight guards that are normally released within microseconds,
      // so yield off-latch a bounded number of times before declaring
      // the shard exhausted.
      if (shard.lru.size() >= shard.capacity && !EvictOneLocked(shard)) {
        if (wait < kPinWaitYields) {
          latch.Unlock();
          std::this_thread::yield();
          continue;
        }
        return Status::Internal(
            "buffer pool shard " + std::to_string(ShardIndex(id)) +
            " exhausted: all " + std::to_string(shard.lru.size()) +
            " frames pinned (pin leak, or a caller holds more pins than "
            "the shard has frames)");
      }
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      // Attribute miss servicing (device read + retry backoff, modeled
      // I/O included) to the buffer_io phase of the current request.
      // Hits stay charged to the surrounding phase: no I/O happened, and
      // keeping the hit path free of clock reads is what makes always-on
      // recording affordable.
      ScopedQueryPhase io_phase(QueryPhase::kBufferIo);
      return ReadIntoShardLocked(shard, id);
    }
  }

  /// Evicts everything unpinned (cold-cache benchmarking) and forgets the
  /// device's head position so the first post-drop read bills as a random
  /// access. Frames with live guards are NOT invalidated: if any pin is
  /// active the drop is partial and kInternal is returned, so benchmarks
  /// cannot silently measure a half-warm cache while a query is running.
  Status DropCaches() {
    uint64_t still_pinned = 0;
    for (Shard& shard : shards_) {
      MutexLock latch(shard.mu);
      for (auto it = shard.lru.begin(); it != shard.lru.end();) {
        if (it->pins.load(std::memory_order_acquire) == 0) {
          shard.resident.erase(it->id);
          it = shard.lru.erase(it);
        } else {
          ++still_pinned;
          ++it;
        }
      }
    }
    device_->ResetLocality();
    if (still_pinned > 0) {
      return Status::Internal("DropCaches: " + std::to_string(still_pinned) +
                              " pages still pinned by live PageGuards");
    }
    return Status::Ok();
  }

  /// Clears the quarantine sets (e.g. between fault-soak seeds, after the
  /// device's sticky fault state has been reset).
  void ClearQuarantine() {
    for (Shard& shard : shards_) {
      MutexLock latch(shard.mu);
      shard.quarantined.clear();
    }
  }

  void set_retry_policy(const RetryPolicy& retry) { retry_ = retry; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Point-in-time view of one shard, for per-shard observability gauges.
  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t resident_pages = 0;
    uint64_t pinned_pages = 0;
    uint64_t capacity_pages = 0;
  };

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  ShardStats shard_stats(uint32_t s) const {
    const Shard& shard = shards_[s];
    MutexLock latch(shard.mu);
    ShardStats stats;
    stats.hits = shard.hits.load(std::memory_order_relaxed);
    stats.misses = shard.misses.load(std::memory_order_relaxed);
    stats.evictions = shard.evictions.load(std::memory_order_relaxed);
    stats.resident_pages = shard.lru.size();
    stats.capacity_pages = shard.capacity;
    for (const Frame& frame : shard.lru) {
      if (frame.pins.load(std::memory_order_relaxed) > 0) {
        ++stats.pinned_pages;
      }
    }
    return stats;
  }

  uint64_t hits() const { return SumShards(&Shard::hits); }
  uint64_t misses() const { return SumShards(&Shard::misses); }
  uint64_t evictions() const { return SumShards(&Shard::evictions); }
  uint64_t resident_pages() const {
    uint64_t total = 0;
    for (uint32_t s = 0; s < num_shards(); ++s) {
      total += shard_stats(s).resident_pages;
    }
    return total;
  }
  uint64_t pinned_pages() const {
    uint64_t total = 0;
    for (uint32_t s = 0; s < num_shards(); ++s) {
      total += shard_stats(s).pinned_pages;
    }
    return total;
  }
  /// Fault observability (not reset by ResetStats).
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }
  uint64_t checksum_errors() const {
    return checksum_errors_.load(std::memory_order_relaxed);
  }
  uint64_t quarantined_pages() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      MutexLock latch(shard.mu);
      total += shard.quarantined.size();
    }
    return total;
  }

  /// Resets the cache-effectiveness counters of a measurement window.
  /// Fault counters (retries, checksum errors) survive, like the device's
  /// injected-fault counters.
  void ResetStats() {
    for (Shard& shard : shards_) {
      shard.hits.store(0, std::memory_order_relaxed);
      shard.misses.store(0, std::memory_order_relaxed);
      shard.evictions.store(0, std::memory_order_relaxed);
    }
  }

 private:
  /// Auto-sharding knobs: pools smaller than 2*kMinPagesPerShard frames
  /// stay single-sharded (strict global LRU, what the eviction-order unit
  /// tests assert); big serving pools spread over up to kDefaultMaxShards
  /// latches.
  static constexpr uint64_t kMinPagesPerShard = 64;
  static constexpr uint32_t kDefaultMaxShards = 8;
  /// Bounded wait for transient "all frames pinned" before failing loudly.
  static constexpr uint32_t kPinWaitYields = 1024;

  /// A cached page. Frames live as std::list nodes, so their addresses
  /// are stable across LRU splices; a frame is destroyed only under its
  /// shard latch and only when pins == 0 (acquire, pairing with the
  /// guards' release decrements).
  struct Frame {
    PageId id = kInvalidPage;
    Page page;
    std::atomic<uint32_t> pins{0};
  };

  struct Shard {
    uint64_t capacity = 0;
    /// Shard latch. In the lock hierarchy it sits *above* the device
    /// mutex: ReadIntoShardLocked calls into StorageDevice while holding
    /// it; the device never calls back into the pool.
    mutable Mutex mu;
    /// Front = most recently used.
    std::list<Frame> lru PTLDB_GUARDED_BY(mu);
    std::unordered_map<PageId, std::list<Frame>::iterator> resident
        PTLDB_GUARDED_BY(mu);
    std::unordered_set<PageId> quarantined PTLDB_GUARDED_BY(mu);
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> evictions{0};

    Shard() = default;
    Shard(Shard&&) = delete;  // Vector is sized once in the constructor.
  };

  uint32_t ShardIndex(PageId id) const {
    // Fibonacci hash: page ids are dense and sequential, so take the
    // high bits of a multiplicative mix rather than id % n (which would
    // stride-alias structured access patterns onto one latch).
    const uint64_t mixed = id * UINT64_C(0x9E3779B97F4A7C15);
    return static_cast<uint32_t>((mixed >> 32) % shards_.size());
  }

  /// Pins `frame` and wraps it in a guard. Caller holds the shard latch,
  /// so the pin cannot race the evictor's pins==0 check.
  PageGuard Pin(Frame& frame) {
    frame.pins.fetch_add(1, std::memory_order_relaxed);
    return PageGuard(&frame.pins, &frame.page);
  }

  /// Evicts the least-recently-used unpinned frame. Caller holds the
  /// shard latch. Returns false if every frame is pinned.
  bool EvictOneLocked(Shard& shard) PTLDB_REQUIRES(shard.mu) {
    for (auto it = std::prev(shard.lru.end());; --it) {
      if (it->pins.load(std::memory_order_acquire) == 0) {
        shard.resident.erase(it->id);
        shard.lru.erase(it);
        shard.evictions.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      if (it == shard.lru.begin()) return false;
    }
  }

  /// Miss path: reads `id` from the device (with retry/backoff and
  /// checksum verification) into a fresh frame at the LRU front. Caller
  /// holds the shard latch and has already made room.
  Result<PageGuard> ReadIntoShardLocked(Shard& shard, PageId id)
      PTLDB_REQUIRES(shard.mu) {
    const PageStore& store = *store_;  // Read-only: must not dirty stamps.
    Status last = Status::Ok();
    uint64_t backoff = retry_.initial_backoff_ns;
    uint32_t checksum_failures = 0;
    for (uint32_t attempt = 0; attempt < retry_.max_attempts; ++attempt) {
      if (attempt > 0) {
        device_->ChargeWait(backoff);
        backoff *= 2;
        retries_.fetch_add(1, std::memory_order_relaxed);
      }
      shard.lru.emplace_front();
      Frame& frame = shard.lru.front();
      last = device_->ReadPage(id, store.page(id), &frame.page);
      if (!last.ok()) {
        shard.lru.pop_front();
        continue;  // Transient or sticky device error.
      }
      if (store.stamped(id) &&
          Crc32c(frame.page.bytes.data(), kPageSize) != store.checksum(id)) {
        shard.lru.pop_front();
        ++checksum_failures;
        checksum_errors_.fetch_add(1, std::memory_order_relaxed);
        last = Status::Corruption("checksum mismatch on page " +
                                  std::to_string(id));
        continue;  // Possibly a wire flip; retry.
      }
      frame.id = id;
      shard.resident.emplace(id, shard.lru.begin());
      return Pin(frame);
    }
    if (checksum_failures == retry_.max_attempts) {
      // Every attempt delivered corrupt bytes: latent media corruption,
      // not a wire glitch. Fail fast from now on.
      shard.quarantined.insert(id);
    }
    return last;
  }

  uint64_t SumShards(std::atomic<uint64_t> Shard::* counter) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += (shard.*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  PageStore* store_;
  StorageDevice* device_;
  uint64_t capacity_;
  RetryPolicy retry_;
  std::vector<Shard> shards_;
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> checksum_errors_{0};
};

}  // namespace ptldb

#endif  // PTLDB_ENGINE_BUFFER_POOL_H_
