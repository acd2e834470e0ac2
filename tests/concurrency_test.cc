// Concurrency stress tests for the pinned, sharded buffer pool. These are
// the tests the TSan CI matrix entry exists for: a deliberately tiny pool
// (capacity ≈ 2x shard count) makes eviction constant, so many threads
// reading while others evict exercises the PageGuard pin protocol on
// every fetch. Under the pre-guard BufferPool (raw `const Page*` valid
// "until eviction", one global latch) this same workload is a
// use-after-free: ThreadSanitizer reports races on the recycled list
// nodes and the byte checks read other pages' contents.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "common/rng.h"
#include "engine/buffer_pool.h"
#include "engine/device.h"
#include "engine/pager.h"
#include "ptldb/ptldb.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

namespace ptldb {
namespace {

constexpr uint32_t kThreads = 8;

/// Pages filled with a per-page byte pattern, so a reader can prove the
/// frame it dereferences is really the page it fetched.
PageStore MakePatternedStore(uint64_t num_pages) {
  PageStore store;
  for (uint64_t i = 0; i < num_pages; ++i) {
    const PageId id = store.Allocate();
    store.page(id).bytes.fill(static_cast<uint8_t>(id * 37 + 11));
  }
  store.StampChecksums();
  return store;
}

TEST(BufferPoolConcurrencyTest, TinyPoolEvictionUnderConcurrentReaders) {
  constexpr uint64_t kPages = 64;
  PageStore store = MakePatternedStore(kPages);
  StorageDevice device(DeviceProfile::Ram());
  // Capacity 2x the shard count: every shard holds ~2 frames, so nearly
  // every fetch evicts while other threads hold live guards.
  BufferPool pool(&store, &device, /*capacity_pages=*/2 * kThreads,
                  /*num_shards=*/kThreads / 2);
  std::atomic<uint64_t> bad_bytes{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t * 7919 + 1);
      for (int i = 0; i < 20000; ++i) {
        const PageId id = rng.NextBelow(kPages);
        auto guard = pool.Fetch(id);
        if (!guard.ok()) {
          errors.fetch_add(1);
          continue;
        }
        const uint8_t want = static_cast<uint8_t>(id * 37 + 11);
        for (uint32_t b = 0; b < kPageSize; b += 512) {
          if ((*guard)->bytes[b] != want) bad_bytes.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_bytes.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(pool.evictions(), 0u) << "pool too big to stress eviction";
  EXPECT_EQ(pool.pinned_pages(), 0u);
  EXPECT_TRUE(pool.DropCaches().ok());
}

TEST(BufferPoolConcurrencyTest, PinnedFramesSurviveConcurrentEvictionStorm) {
  constexpr uint64_t kPages = 64;
  PageStore store = MakePatternedStore(kPages);
  StorageDevice device(DeviceProfile::Ram());
  BufferPool pool(&store, &device, /*capacity_pages=*/2 * kThreads,
                  /*num_shards=*/kThreads / 2);
  // Half the threads hold a pin for a while and keep re-validating its
  // bytes; the other half churn the remaining pages to force evictions
  // around the pinned frames.
  std::atomic<uint64_t> bad_bytes{0};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads / 2; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 50; ++round) {
        const PageId id = t;  // Distinct pinned page per holder thread.
        auto guard = pool.Fetch(id);
        ASSERT_TRUE(guard.ok());
        const uint8_t want = static_cast<uint8_t>(id * 37 + 11);
        for (int check = 0; check < 200; ++check) {
          if ((*guard)->bytes[(check * 41) % kPageSize] != want) {
            bad_bytes.fetch_add(1);
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (uint32_t t = kThreads / 2; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t * 104729 + 3);
      for (int i = 0; i < 10000; ++i) {
        // Churn only pages no holder thread pins, so the churners can
        // never exhaust a shard that holds long-lived pins.
        const PageId id = kThreads / 2 + rng.NextBelow(kPages - kThreads / 2);
        auto guard = pool.Fetch(id);
        if (guard.ok()) {
          bad_bytes.fetch_add(
              (*guard)->bytes[100] != static_cast<uint8_t>(id * 37 + 11));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad_bytes.load(), 0u);
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(FacadeConcurrencyTest, TinyPoolConcurrentQueriesMatchSerialAnswers) {
  GeneratorOptions o;
  o.num_stops = 48;
  o.target_connections = 1200;
  o.min_route_len = 3;
  o.max_route_len = 8;
  o.seed = 20260805;
  auto tt = GenerateNetwork(o);
  ASSERT_TRUE(tt.ok());
  auto index = BuildTtlIndex(*tt);
  ASSERT_TRUE(index.ok());

  PtldbOptions opts;
  opts.device = DeviceProfile::Ram();
  // The acceptance scenario: pool capacity ~= 2x shard count, so every
  // concurrent query constantly evicts pages other queries are scanning.
  opts.buffer_pool_shards = 4;
  opts.buffer_pool_pages = 2 * opts.buffer_pool_shards;
  auto db = PtldbDatabase::Build(*index, opts);
  ASSERT_TRUE(db.ok());
  Rng trng(99);
  const std::vector<StopId> targets =
      trng.SampleDistinct(tt->num_stops(), 10);
  ASSERT_TRUE((*db)->AddTargetSet("T", *index, targets, /*kmax=*/8).ok());

  // One worker's query schedule: deterministic from its thread id.
  struct Query {
    StopId s;
    StopId g;
    EventTime t;
    uint32_t k;
  };
  const auto schedule = [&](uint32_t tid) {
    std::vector<Query> qs;
    Rng rng(tid * 6151 + 17);
    for (int i = 0; i < 60; ++i) {
      qs.push_back({static_cast<StopId>(rng.NextBelow(tt->num_stops())),
                    static_cast<StopId>(rng.NextBelow(tt->num_stops())),
                    EventTime::FromSeconds(
                        rng.NextInRange(tt->min_time().raw_seconds(),
                                        tt->max_time().raw_seconds())),
                    static_cast<uint32_t>(rng.NextInRange(1, 8))});
    }
    return qs;
  };

  // Serial pass records the expected answers...
  std::vector<std::vector<EventTime>> want_ea(kThreads);
  std::vector<std::vector<std::vector<StopTimeResult>>> want_knn(kThreads);
  for (uint32_t tid = 0; tid < kThreads; ++tid) {
    for (const Query& q : schedule(tid)) {
      auto ea = (*db)->EarliestArrival(q.s, q.g, q.t);
      ASSERT_TRUE(ea.ok());
      want_ea[tid].push_back(*ea);
      auto knn = (*db)->EaKnn("T", q.s, q.t, q.k);
      ASSERT_TRUE(knn.ok());
      want_knn[tid].push_back(*knn);
    }
  }
  // ...then 8 threads replay their schedules concurrently on the tiny
  // pool. Every answer must be identical: pinned pages cannot be evicted
  // mid-scan, and a cross-shard race would surface as a wrong timestamp.
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (uint32_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const auto qs = schedule(tid);
      for (size_t i = 0; i < qs.size(); ++i) {
        auto ea = (*db)->EarliestArrival(qs[i].s, qs[i].g, qs[i].t);
        if (!ea.ok()) {
          errors.fetch_add(1);
        } else if (*ea != want_ea[tid][i]) {
          mismatches.fetch_add(1);
        }
        auto knn = (*db)->EaKnn("T", qs[i].s, qs[i].t, qs[i].k);
        if (!knn.ok()) {
          errors.fetch_add(1);
        } else if (*knn != want_knn[tid][i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT((*db)->Snapshot().counters.at("bufferpool.evictions"), 0u)
      << "pool too big: the stress never evicted";
}

}  // namespace
}  // namespace ptldb
