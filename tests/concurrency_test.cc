// Concurrency stress tests for the pinned, sharded buffer pool and for
// target-set registration under live readers. These are
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
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
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
#include "ptldb/tables.h"
#include "sql/interpreter.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

namespace ptldb {
namespace {

constexpr uint32_t kThreads = 8;

/// Pages filled with a per-page byte pattern, so a reader can prove the
/// frame it dereferences is really the page it fetched.
void FillPatterned(PageStore* store, uint64_t num_pages) {
  for (uint64_t i = 0; i < num_pages; ++i) {
    const PageId id = store->Allocate();
    store->page(id).bytes.fill(static_cast<uint8_t>(id * 37 + 11));
  }
  store->StampChecksums();
}

TEST(BufferPoolConcurrencyTest, TinyPoolEvictionUnderConcurrentReaders) {
  constexpr uint64_t kPages = 64;
  PageStore store;
  FillPatterned(&store, kPages);
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
  PageStore store;
  FillPatterned(&store, kPages);
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

// AddTargetSet builds outside the facade latch, so registrations run
// while readers query. Readers on set "t" — facade kNN/OTM and v2v
// queries, SQL SELECTs over otm_ea_t, and the catalog views size_bytes()
// and table_names() — must keep getting their serial answers and see
// only sealed tables; two writers register distinct sets while a third
// pair races on one name, of which exactly one call may win. The tiny
// pool keeps readers missing, so they read the PageStore directory while
// the writers grow it.
TEST(FacadeConcurrencyTest, RegistrationUnderLoadKeepsReadersExact) {
  GeneratorOptions o;
  o.num_stops = 48;
  o.target_connections = 1200;
  o.min_route_len = 3;
  o.max_route_len = 8;
  o.seed = 20261017;
  auto tt = GenerateNetwork(o);
  ASSERT_TRUE(tt.ok());
  auto index = BuildTtlIndex(*tt);
  ASSERT_TRUE(index.ok());
  PtldbOptions opts;
  opts.device = DeviceProfile::Ram();
  opts.buffer_pool_shards = 4;
  opts.buffer_pool_pages = 32;
  auto built = PtldbDatabase::Build(*index, opts);
  ASSERT_TRUE(built.ok());
  PtldbDatabase* db = built->get();
  Rng trng(7);
  // Lower case: the SQL lexer folds identifiers.
  ASSERT_TRUE(
      db->AddTargetSet("t", *index, trng.SampleDistinct(tt->num_stops(), 10),
                       /*kmax=*/8)
          .ok());

  struct Query {
    StopId s;
    StopId g;
    EventTime t;
    uint32_t k;
  };
  constexpr uint32_t kReaders = 3;
  constexpr int kQueries = 25;
  const auto schedule = [&](uint32_t tid) {
    std::vector<Query> qs;
    Rng rng(tid * 7919 + 5);
    for (int i = 0; i < kQueries; ++i) {
      qs.push_back({static_cast<StopId>(rng.NextBelow(tt->num_stops())),
                    static_cast<StopId>(rng.NextBelow(tt->num_stops())),
                    EventTime::FromSeconds(
                        rng.NextInRange(tt->min_time().raw_seconds(),
                                        tt->max_time().raw_seconds())),
                    static_cast<uint32_t>(rng.NextInRange(1, 8))});
    }
    return qs;
  };
  // One reader pass: every answer of a schedule, flattened.
  struct Answers {
    std::vector<Result<EventTime>> v2v;
    std::vector<Result<std::vector<StopTimeResult>>> sets;
  };
  const auto run = [&](uint32_t tid) {
    Answers a;
    for (const Query& q : schedule(tid)) {
      a.v2v.push_back(db->EarliestArrival(q.s, q.g, q.t));
      a.sets.push_back(db->EaKnn("t", q.s, q.t, q.k));
      a.sets.push_back(db->LdKnn("t", q.s, q.t, q.k));
      a.sets.push_back(db->EaOneToMany("t", q.s, q.t));
      a.sets.push_back(db->LdOneToMany("t", q.s, q.t));
    }
    return a;
  };
  const std::string sql =
      "SELECT dephour, vs, tas FROM otm_ea_t WHERE hub = $1";
  const auto run_sql = [&](SqlInterpreter* interp, int64_t hub) {
    auto r = interp->Execute(sql, {hub});
    return r.ok() ? std::optional<std::vector<SqlRow>>(r->rows)
                  : std::nullopt;
  };

  std::vector<Answers> want;
  for (uint32_t tid = 0; tid < kReaders; ++tid) want.push_back(run(tid));
  std::vector<std::optional<std::vector<SqlRow>>> want_sql;
  {
    SqlInterpreter interp(db->engine());
    for (StopId hub = 0; hub < tt->num_stops(); ++hub) {
      want_sql.push_back(run_sql(&interp, hub));
      ASSERT_TRUE(want_sql.back().has_value());
    }
  }

  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> passes{0};
  const auto same = [](const auto& got, const auto& expect) {
    if (got.ok() != expect.ok()) return false;
    return !got.ok() || *got == *expect;
  };
  std::vector<std::thread> readers;
  for (uint32_t tid = 0; tid < kReaders; ++tid) {
    readers.emplace_back([&, tid] {
      do {
        const Answers got = run(tid);
        for (size_t i = 0; i < got.v2v.size(); ++i) {
          if (!same(got.v2v[i], want[tid].v2v[i])) mismatches.fetch_add(1);
        }
        for (size_t i = 0; i < got.sets.size(); ++i) {
          if (!same(got.sets[i], want[tid].sets[i])) mismatches.fetch_add(1);
        }
        passes.fetch_add(1);
      } while (!writers_done.load());
    });
  }
  readers.emplace_back([&] {
    SqlInterpreter interp(db->engine());
    do {
      for (StopId hub = 0; hub < tt->num_stops(); ++hub) {
        if (run_sql(&interp, hub) != want_sql[hub]) mismatches.fetch_add(1);
      }
      passes.fetch_add(1);
    } while (!writers_done.load());
  });
  std::atomic<uint64_t> catalog_errors{0};
  readers.emplace_back([&] {
    const std::set<std::string> base = {"lout", "lin", "otm_ea_t",
                                        "otm_ld_t"};
    uint64_t last_size = 0;
    do {
      const uint64_t size = db->size_bytes();
      if (size < last_size) catalog_errors.fetch_add(1);
      last_size = size;
      const std::vector<std::string> names = db->engine()->table_names();
      const std::set<std::string> listed(names.begin(), names.end());
      for (const std::string& name : base) {
        if (listed.count(name) == 0) catalog_errors.fetch_add(1);
      }
      for (const std::string& name : names) {
        const EngineTable* table = db->engine()->FindTable(name);
        if (table == nullptr || !table->sealed()) catalog_errors.fetch_add(1);
      }
      passes.fetch_add(1);
    } while (!writers_done.load());
  });

  // A set answers correctly as soon as its AddTargetSet returns.
  std::atomic<uint64_t> wrong_new_sets{0};
  const auto check_set = [&](const std::string& name,
                             const std::vector<StopId>& targets) {
    Rng rng(std::hash<std::string>{}(name));
    for (int i = 0; i < 6; ++i) {
      const auto q = static_cast<StopId>(rng.NextBelow(tt->num_stops()));
      const EventTime t = EventTime::FromSeconds(rng.NextInRange(
          tt->min_time().raw_seconds(), tt->max_time().raw_seconds()));
      const auto ea = db->EaOneToMany(name, q, t);
      const auto ld = db->LdOneToMany(name, q, t);
      if (!ea.ok() || *ea != BruteEaOneToMany(*tt, q, targets, t) ||
          !ld.ok() || *ld != BruteLdOneToMany(*tt, q, targets, t)) {
        wrong_new_sets.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> writers;
  std::atomic<uint64_t> register_errors{0};
  for (const char* prefix : {"wa", "wb"}) {
    writers.emplace_back([&, prefix] {
      Rng rng(std::hash<std::string>{}(prefix));
      for (int j = 0; j < 2; ++j) {
        const std::string name = prefix + std::to_string(j);
        const auto targets = rng.SampleDistinct(tt->num_stops(), 8);
        if (!db->AddTargetSet(name, *index, targets, 4).ok()) {
          register_errors.fetch_add(1);
          continue;
        }
        check_set(name, targets);
      }
    });
  }
  std::atomic<uint32_t> at_gate{0};
  std::vector<Status> race(2);
  std::vector<std::vector<StopId>> race_targets = {
      trng.SampleDistinct(tt->num_stops(), 6),
      trng.SampleDistinct(tt->num_stops(), 6)};
  for (uint32_t i = 0; i < 2; ++i) {
    writers.emplace_back([&, i] {
      at_gate.fetch_add(1);
      while (at_gate.load() < 2) std::this_thread::yield();
      race[i] = db->AddTargetSet("same", *index, race_targets[i], 4);
      if (race[i].ok()) check_set("same", race_targets[i]);
    });
  }
  for (auto& th : writers) th.join();
  writers_done.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(register_errors.load(), 0u);
  EXPECT_EQ(wrong_new_sets.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(catalog_errors.load(), 0u);
  EXPECT_GE(passes.load(), kReaders + 2);
  EXPECT_NE(race[0].ok(), race[1].ok())
      << race[0].ToString() << " / " << race[1].ToString();
  for (const Status& s : race) {
    if (!s.ok()) {
      EXPECT_EQ(s.code(), Status::Code::kInvalidArgument);
    }
  }
  const auto sets = db->target_sets();
  EXPECT_EQ(sets.size(), 6u);  // t, wa0, wa1, wb0, wb1, same.
}

}  // namespace
}  // namespace ptldb
