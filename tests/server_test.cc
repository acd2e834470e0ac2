#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "ptldb/ptldb.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

namespace ptldb {
namespace {

using Clock = QueryContext::Clock;
using std::chrono::milliseconds;

// Tests for the serving layer (DESIGN.md §10): admission control and
// shed-before-collapse under synthetic overload, end-to-end deadline
// semantics (kDeadlineExceeded with bounded grace, no leaked pins), the
// per-set circuit breaker, and a fault-injection soak where every injected
// storage error surfaces as a per-request answer — never a wedged queue.

struct Fixture {
  Timetable tt;
  TtlIndex index;
  std::vector<StopId> targets;
};

Fixture* BuildFixture() {
  GeneratorOptions o;
  o.num_stops = 60;
  o.target_connections = 3000;
  o.min_route_len = 4;
  o.max_route_len = 8;
  o.seed = 90210;
  auto tt = GenerateNetwork(o);
  EXPECT_TRUE(tt.ok());
  auto* f = new Fixture();
  f->tt = std::move(*tt);
  f->index = std::move(BuildTtlIndex(f->tt)).value();
  Rng rng(555);
  f->targets = rng.SampleDistinct(f->tt.num_stops(), 8);
  return f;
}

Fixture& SharedFixture() {
  static Fixture* fixture = BuildFixture();
  return *fixture;
}

std::unique_ptr<PtldbDatabase> MakeDb(uint64_t pool_pages = 1u << 20) {
  Fixture& f = SharedFixture();
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  options.buffer_pool_pages = pool_pages;
  auto db = PtldbDatabase::Build(f.index, options);
  EXPECT_TRUE(db.ok());
  EXPECT_TRUE((*db)->AddTargetSet("T", f.index, f.targets, /*kmax=*/4).ok());
  return std::move(*db);
}

QueryRequest V2vRequest(Rng* rng, const Timetable& tt) {
  QueryRequest r;
  r.type = QueryType::kV2vEa;
  r.s = static_cast<StopId>(rng->NextBelow(tt.num_stops()));
  r.g = static_cast<StopId>(rng->NextBelow(tt.num_stops()));
  r.t = tt.min_time();
  return r;
}

QueryRequest KnnRequest(Rng* rng, const Timetable& tt) {
  QueryRequest r;
  r.type = QueryType::kEaKnn;
  r.set_name = "T";
  r.s = static_cast<StopId>(rng->NextBelow(tt.num_stops()));
  r.t = tt.min_time();
  r.k = 3;
  return r;
}

TEST(PtldbServerTest, AnswersMatchDirectDatabaseCalls) {
  auto db = MakeDb();
  const Timetable& tt = SharedFixture().tt;
  ServerOptions so;
  so.num_workers = 2;
  PtldbServer server(db.get(), so);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const QueryRequest v = V2vRequest(&rng, tt);
    const QueryResponse resp = server.Execute(v);
    const auto direct = db->EarliestArrival(v.s, v.g, v.t);
    ASSERT_EQ(resp.status.ok(), direct.ok()) << resp.status.ToString();
    if (direct.ok()) {
      EXPECT_EQ(resp.time, *direct);
    }

    const QueryRequest knn = KnnRequest(&rng, tt);
    const QueryResponse kresp = server.Execute(knn);
    const auto kdirect = db->EaKnn(knn.set_name, knn.s, knn.t, knn.k);
    ASSERT_EQ(kresp.status.ok(), kdirect.ok()) << kresp.status.ToString();
    if (kdirect.ok()) {
      ASSERT_EQ(kresp.results.size(), kdirect->size());
      for (size_t j = 0; j < kresp.results.size(); ++j) {
        EXPECT_EQ(kresp.results[j].stop, (*kdirect)[j].stop);
        EXPECT_EQ(kresp.results[j].time, (*kdirect)[j].time);
      }
    }
    EXPECT_FALSE(kresp.via_breaker);
  }
}

TEST(PtldbServerTest, SubmitAfterShutdownAnswersOverloaded) {
  auto db = MakeDb();
  const Timetable& tt = SharedFixture().tt;
  PtldbServer server(db.get(), {});
  server.Shutdown();
  Rng rng(2);
  const QueryResponse resp = server.Execute(V2vRequest(&rng, tt));
  EXPECT_EQ(resp.status.code(), Status::Code::kOverloaded);
}

// The tentpole property: under a flood of expensive (kNN) requests far
// beyond capacity, the expensive class is rejected fast and explicitly
// with kOverloaded while concurrently offered interactive (v2v EA)
// traffic keeps >= 99% availability — overload degrades service
// gracefully instead of collapsing it.
//
// The flood is deterministic rather than a wall-clock race: each round
// parks both workers in a response callback, offers 4x the expensive
// class's 8-slot queue reserve plus some interactive requests, and only
// then lets the workers drain the queue. So at most 8 expensive requests
// per round can be admitted (and answered OK), at least 24 are shed, and
// every interactive request finds room — however the threads happen to
// be scheduled.
TEST(PtldbServerTest, ExpensiveFloodShedsWhileInteractiveHolds) {
  auto db = MakeDb(/*pool_pages=*/32);
  const Timetable& tt = SharedFixture().tt;
  // Real service cost per page miss (the tiny pool keeps misses coming),
  // so "capacity" is a physical limit the flood genuinely exceeds.
  FaultPolicy delay;
  delay.read_delay_ns = 1'000'000;  // 1 ms
  db->engine()->device()->set_fault_policy(delay);

  ServerOptions so;
  so.num_workers = 2;
  so.queue_capacity = 16;
  so.expensive_admit_fraction = 0.5;
  PtldbServer server(db.get(), so);

  constexpr int kRounds = 10;
  constexpr int kFloodPerRound = 32;       // 4x the expensive reserve.
  constexpr int kInteractivePerRound = 5;  // Fits the interactive headroom.
  constexpr int kInteractive = kRounds * kInteractivePerRound;
  std::atomic<uint64_t> exp_submitted{0};
  std::atomic<uint64_t> exp_ok{0};
  std::atomic<uint64_t> exp_shed{0};
  std::atomic<uint64_t> exp_other{0};
  std::atomic<uint64_t> exp_responded{0};
  std::atomic<uint64_t> int_ok{0};
  std::atomic<uint64_t> int_responded{0};
  const auto wait_for = [](const auto& done) {
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (!done()) {
      if (Clock::now() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  };
  Rng flood_rng(31);
  Rng int_rng(32);
  for (int round = 0; round < kRounds; ++round) {
    // Park both workers. The queue is empty and both workers idle, so
    // each blocker goes to a different worker.
    std::atomic<int> parked{0};
    std::atomic<int> unparked{0};
    std::atomic<bool> gate_open{false};
    for (uint32_t w = 0; w < so.num_workers; ++w) {
      server.Submit(V2vRequest(&int_rng, tt), [&](QueryResponse) {
        parked.fetch_add(1);
        while (!gate_open.load()) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        unparked.fetch_add(1);
      });
    }
    ASSERT_TRUE(wait_for([&] { return parked.load() == 2; }))
        << "workers never parked in round " << round;

    for (int i = 0; i < kFloodPerRound; ++i) {
      exp_submitted.fetch_add(1, std::memory_order_relaxed);
      server.Submit(KnnRequest(&flood_rng, tt), [&](QueryResponse resp) {
        if (resp.status.ok()) {
          exp_ok.fetch_add(1, std::memory_order_relaxed);
        } else if (resp.status.code() == Status::Code::kOverloaded) {
          exp_shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          exp_other.fetch_add(1, std::memory_order_relaxed);
        }
        exp_responded.fetch_add(1, std::memory_order_relaxed);
      });
    }
    for (int i = 0; i < kInteractivePerRound; ++i) {
      server.Submit(V2vRequest(&int_rng, tt), [&](QueryResponse resp) {
        if (resp.status.ok()) int_ok.fetch_add(1, std::memory_order_relaxed);
        int_responded.fetch_add(1, std::memory_order_relaxed);
      });
    }
    gate_open.store(true);
    // Every submission is answered exactly once before the next round.
    const auto want_int =
        static_cast<uint64_t>((round + 1) * kInteractivePerRound);
    ASSERT_TRUE(wait_for([&] {
      return unparked.load() == 2 && int_responded.load() == want_int &&
             exp_responded.load() == exp_submitted.load();
    })) << "server wedged under flood in round " << round;
  }
  server.Shutdown();

  EXPECT_EQ(exp_responded.load(), exp_submitted.load());
  EXPECT_EQ(exp_ok.load() + exp_shed.load() + exp_other.load(),
            exp_submitted.load());
  EXPECT_EQ(exp_other.load(), 0u);
  // The flood ran far beyond capacity, so most of it must have been shed…
  EXPECT_GT(exp_shed.load(), exp_ok.load());
  // …while interactive availability held at >= 99% (here: all of it).
  EXPECT_GE(int_ok.load(), static_cast<uint64_t>(kInteractive * 0.99));
  EXPECT_EQ(db->engine()->buffer_pool()->pinned_pages(), 0u);
  EXPECT_GT(db->metrics()->counter("server.rejected.shed")->value(), 0u);
}

// Deadline contract: a query slowed by real per-read delays returns
// kDeadlineExceeded within a bounded grace after its deadline — it does
// not run to completion, hold worker threads, or leak buffer-pool pins —
// and the server stays fully usable afterwards.
TEST(PtldbServerTest, DeadlineExpiresMidQueryWithBoundedGrace) {
  auto db = MakeDb(/*pool_pages=*/64);
  const Timetable& tt = SharedFixture().tt;
  ServerOptions so;
  so.num_workers = 1;
  PtldbServer server(db.get(), so);
  Rng rng(77);
  const QueryRequest probe = KnnRequest(&rng, tt);

  // Calibrate: raise the per-read delay until the cold query reliably
  // takes >= 9 ms with no deadline, so a deadline a third of the way in
  // is guaranteed to expire mid-query.
  uint64_t delay_ns = 3'000'000;  // 3 ms per page read
  milliseconds full_ms{0};
  for (;;) {
    FaultPolicy delay;
    delay.read_delay_ns = delay_ns;
    db->engine()->device()->set_fault_policy(delay);
    ASSERT_TRUE(db->DropCaches().ok());
    const auto t0 = Clock::now();
    const QueryResponse full = server.Execute(probe);
    full_ms = std::chrono::duration_cast<milliseconds>(Clock::now() - t0);
    ASSERT_TRUE(full.status.ok()) << full.status.ToString();
    if (full_ms.count() >= 9 || delay_ns >= 48'000'000) break;
    delay_ns *= 2;
  }
  ASSERT_GE(full_ms.count(), 9) << "query too fast to outlive any deadline";

  // Same query, cold again, with a deadline a third of the way in.
  ASSERT_TRUE(db->DropCaches().ok());
  QueryRequest limited = probe;
  limited.has_deadline = true;
  const auto deadline_budget = milliseconds(std::max<int64_t>(
      3, full_ms.count() / 3));
  limited.deadline = Clock::now() + deadline_budget;
  const auto t1 = Clock::now();
  const QueryResponse cut = server.Execute(limited);
  const auto cut_ms =
      std::chrono::duration_cast<milliseconds>(Clock::now() - t1);

  EXPECT_EQ(cut.status.code(), Status::Code::kDeadlineExceeded)
      << cut.status.ToString();
  // Bounded grace: cancellation checkpoints fire at worst every
  // kCheckpointStride page fetches, each costing the injected delay —
  // far less than the 500 ms bound, and far less than running to the end.
  EXPECT_LE(cut_ms.count(), deadline_budget.count() + 500);
  // No pins may outlive the cancelled query.
  EXPECT_EQ(db->engine()->buffer_pool()->pinned_pages(), 0u);
  EXPECT_GE(db->metrics()->counter("server.deadline_exceeded")->value(), 1u);

  // The worker that cancelled is healthy: the same query with no deadline
  // still completes, and the metrics snapshot is coherent.
  FaultPolicy heal;
  db->engine()->device()->set_fault_policy(heal);
  const QueryResponse again = server.Execute(probe);
  EXPECT_TRUE(again.status.ok()) << again.status.ToString();
  const MetricsSnapshot snap = db->metrics()->Snapshot();
  EXPECT_GT(snap.counters.count("server.completed"), 0u);
}

// A request whose deadline has already lapsed when a worker picks it up
// is dropped at the queue head without executing — under overload, work
// the client has given up on must not consume a worker.
TEST(PtldbServerTest, DeadlineExpiredInQueueIsDroppedNotExecuted) {
  auto db = MakeDb();
  const Timetable& tt = SharedFixture().tt;
  ServerOptions so;
  so.num_workers = 1;
  PtldbServer server(db.get(), so);

  Rng rng(88);
  QueryRequest doomed = V2vRequest(&rng, tt);
  doomed.has_deadline = true;
  // Already expired at submission: admission still accepts it (admission
  // only looks at queue depth), but the worker must drop it at pop.
  doomed.deadline = Clock::now() - milliseconds(1);
  const QueryResponse resp = server.Execute(doomed);
  EXPECT_EQ(resp.status.code(), Status::Code::kDeadlineExceeded);
  EXPECT_GE(db->metrics()->counter("server.dropped.deadline_in_queue")->value(),
            1u);
}

// Circuit breaker: a target set whose primary tables keep faulting is
// routed to the exact v2v fallback (via_breaker), and the breaker-open
// transition is visible in the serving metrics.
TEST(PtldbServerTest, RepeatedPrimaryFaultsOpenTheBreaker) {
  auto db = MakeDb(/*pool_pages=*/64);
  const Timetable& tt = SharedFixture().tt;
  FaultPolicy faults;
  faults.seed = 4242;
  faults.sticky_error_prob = 0.5;  // Media dying fast: primaries keep failing.
  db->engine()->device()->set_fault_policy(faults);

  ServerOptions so;
  so.num_workers = 1;
  so.breaker_failure_threshold = 2;
  so.breaker_cooldown = milliseconds(200);
  PtldbServer server(db.get(), so);

  Rng rng(99);
  bool saw_via_breaker = false;
  for (int i = 0; i < 30 && !saw_via_breaker; ++i) {
    PTLDB_IGNORE_STATUS(db->DropCaches());
    const QueryResponse resp = server.Execute(KnnRequest(&rng, tt));
    saw_via_breaker = resp.via_breaker;
  }
  EXPECT_TRUE(saw_via_breaker)
      << "breaker never routed a request to the fallback";
  EXPECT_GE(db->metrics()->counter("server.breaker.opened")->value(), 1u);
  server.Shutdown();
  EXPECT_EQ(db->engine()->buffer_pool()->pinned_pages(), 0u);
}

// Fault-injection soak through the full serving path: concurrent mixed
// load against a device injecting transient errors, sticky bad pages and
// corruption. The invariant is liveness plus exactly-once accounting —
// every submission gets exactly one response, each either OK, an explicit
// overload/deadline rejection, or the underlying storage error; the queue
// never wedges and no pin survives the run.
TEST(PtldbServerTest, FaultSoakNeverWedgesAndAnswersEverything) {
  auto db = MakeDb(/*pool_pages=*/64);
  const Timetable& tt = SharedFixture().tt;
  FaultPolicy faults;
  faults.seed = 777;
  faults.transient_error_prob = 0.05;
  faults.sticky_error_prob = 0.002;
  faults.corrupt_prob = 0.02;
  faults.sticky_corruption = true;
  db->engine()->device()->set_fault_policy(faults);

  ServerOptions so;
  so.num_workers = 3;
  so.queue_capacity = 24;
  so.default_deadline = milliseconds(250);
  PtldbServer server(db.get(), so);

  constexpr int kThreads = 2;
  constexpr int kPerThread = 150;
  std::atomic<uint64_t> responded{0};
  std::atomic<uint64_t> ok{0}, overloaded{0}, deadline{0}, io{0}, corrupt{0},
      other{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kPerThread; ++i) {
        QueryRequest r;
        switch (i % 4) {
          case 0:
            r = V2vRequest(&rng, tt);
            break;
          case 1:
            r = KnnRequest(&rng, tt);
            break;
          case 2:
            r = KnnRequest(&rng, tt);
            r.type = QueryType::kEaOtm;
            break;
          default:
            r = V2vRequest(&rng, tt);
            r.type = QueryType::kV2vSd;
            r.t_end = tt.max_time();
            break;
        }
        if (i % 7 == 0) {
          r.has_deadline = true;
          r.deadline = Clock::now() + milliseconds(5);
        }
        server.Submit(std::move(r), [&](QueryResponse resp) {
          switch (resp.status.code()) {
            case Status::Code::kOk:
              ok.fetch_add(1);
              break;
            case Status::Code::kOverloaded:
              overloaded.fetch_add(1);
              break;
            case Status::Code::kDeadlineExceeded:
              deadline.fetch_add(1);
              break;
            case Status::Code::kIoError:
              io.fetch_add(1);
              break;
            case Status::Code::kCorruption:
              corrupt.fetch_add(1);
              break;
            default:
              other.fetch_add(1);
              break;
          }
          responded.fetch_add(1, std::memory_order_release);
        });
        if (i % 16 == 0) std::this_thread::sleep_for(milliseconds(1));
      }
    });
  }
  for (std::thread& s : submitters) s.join();

  constexpr uint64_t kTotal = kThreads * kPerThread;
  const auto wait_deadline = Clock::now() + std::chrono::seconds(60);
  while (responded.load(std::memory_order_acquire) < kTotal) {
    ASSERT_LT(Clock::now(), wait_deadline)
        << "soak wedged: " << responded.load() << "/" << kTotal;
    std::this_thread::sleep_for(milliseconds(1));
  }
  server.Shutdown();

  EXPECT_EQ(ok.load() + overloaded.load() + deadline.load() + io.load() +
                corrupt.load() + other.load(),
            kTotal);
  EXPECT_GT(ok.load(), 0u) << "not a single query survived the fault rate";
  EXPECT_EQ(db->engine()->buffer_pool()->pinned_pages(), 0u);
  // The registry is coherent after the storm (Snapshot walks every shard).
  const MetricsSnapshot snap = db->metrics()->Snapshot();
  EXPECT_GT(snap.counters.count("server.admitted"), 0u);
}

// Observability contract (DESIGN.md §11): every shed request leaves both a
// query-log record (outcome=shed, cause attributing the admission decision)
// and a retained trace — the 100%-tail-retention rule — and executed
// requests populate the per-class queue-wait histograms.
TEST(PtldbServerTest, ShedRequestsAlwaysLeaveRecordsAndTraces) {
  auto db = MakeDb();
  const Timetable& tt = SharedFixture().tt;
  ServerOptions so;
  so.num_workers = 2;
  PtldbServer server(db.get(), so);
  Rng rng(404);
  constexpr int kExecuted = 8;
  for (int i = 0; i < kExecuted; ++i) {
    EXPECT_TRUE(server.Execute(V2vRequest(&rng, tt)).status.ok());
    EXPECT_TRUE(server.Execute(KnnRequest(&rng, tt)).status.ok());
  }
  server.Shutdown();
  // Post-shutdown submissions are shed deterministically (cause=stopping).
  constexpr int kShed = 5;
  for (int i = 0; i < kShed; ++i) {
    const QueryResponse resp = server.Execute(KnnRequest(&rng, tt));
    EXPECT_EQ(resp.status.code(), Status::Code::kOverloaded);
  }

  const MetricsSnapshot snap = db->metrics()->Snapshot();
  // Counter-level retention equality: shed == retained-shed, exactly.
  EXPECT_EQ(snap.counters.at("querylog.outcome.shed"), uint64_t{kShed});
  EXPECT_EQ(snap.counters.at("traces.retained.shed"), uint64_t{kShed});
  EXPECT_EQ(snap.counters.at("server.rejected.cause.stopping"),
            uint64_t{kShed});
  // Record-level: each shed left exactly one ring record with its cause,
  // marked trace-retained, and the trace queue really holds its trace.
  const auto records = db->query_log()->SnapshotRecords();
  std::vector<uint64_t> shed_seqs;
  for (const QueryLogRecord& r : records) {
    if (r.outcome != QueryOutcome::kShed) continue;
    EXPECT_STREQ(r.cause, "stopping");
    EXPECT_TRUE(r.trace_retained);
    shed_seqs.push_back(r.seq);
  }
  EXPECT_EQ(shed_seqs.size(), static_cast<size_t>(kShed));
  const auto traces = db->query_log()->SnapshotTraces();
  size_t shed_traces = 0;
  for (const auto& t : traces) {
    if (std::find(shed_seqs.begin(), shed_seqs.end(), t.seq) !=
        shed_seqs.end()) {
      ++shed_traces;
    }
  }
  EXPECT_EQ(shed_traces, static_cast<size_t>(kShed));
  // Executed requests landed in both per-class queue-wait histograms.
  EXPECT_EQ(snap.histograms.at("server.queue_wait.interactive_ns").count,
            uint64_t{kExecuted});
  EXPECT_EQ(snap.histograms.at("server.queue_wait.expensive_ns").count,
            uint64_t{kExecuted});
}

// ResetStats carves per-window deltas out of lifetime totals: it zeroes
// every server.* counter and histogram, and nothing else — the query log,
// querylog.* counters and query.* latencies keep accumulating.
TEST(PtldbServerTest, ResetStatsZeroesServerMetricsOnly) {
  auto db = MakeDb();
  const Timetable& tt = SharedFixture().tt;
  ServerOptions so;
  so.num_workers = 2;
  PtldbServer server(db.get(), so);
  Rng rng(405);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(server.Execute(V2vRequest(&rng, tt)).status.ok());
  }
  const MetricsSnapshot before = db->metrics()->Snapshot();
  EXPECT_GT(before.counters.at("server.admitted"), 0u);
  EXPECT_GT(before.histograms.at("server.queue_wait.interactive_ns").count,
            0u);
  const uint64_t records_before = before.counters.at("querylog.records");
  EXPECT_GT(records_before, 0u);

  server.ResetStats();

  const MetricsSnapshot after = db->metrics()->Snapshot();
  for (const auto& [name, value] : after.counters) {
    if (name.rfind("server.", 0) == 0) {
      EXPECT_EQ(value, 0u) << name << " not reset";
    }
  }
  for (const auto& [name, h] : after.histograms) {
    if (name.rfind("server.", 0) == 0) {
      EXPECT_EQ(h.count, 0u) << name << " not reset";
      EXPECT_EQ(h.sum, 0u) << name << " not reset";
    }
  }
  // Non-server metrics and the ring itself are untouched.
  EXPECT_EQ(after.counters.at("querylog.records"), records_before);
  EXPECT_FALSE(db->query_log()->SnapshotRecords().empty());
  // The window restarts cleanly: new traffic re-accumulates from zero.
  EXPECT_TRUE(server.Execute(V2vRequest(&rng, tt)).status.ok());
  EXPECT_EQ(db->metrics()->counter("server.admitted")->value(), 1u);
  server.Shutdown();
}

TEST(PtldbServerTest, IsExpensiveClassifiesQueryTypes) {
  EXPECT_FALSE(PtldbServer::IsExpensive(QueryType::kV2vEa));
  EXPECT_FALSE(PtldbServer::IsExpensive(QueryType::kV2vLd));
  EXPECT_FALSE(PtldbServer::IsExpensive(QueryType::kV2vSd));
  EXPECT_TRUE(PtldbServer::IsExpensive(QueryType::kEaKnn));
  EXPECT_TRUE(PtldbServer::IsExpensive(QueryType::kLdKnn));
  EXPECT_TRUE(PtldbServer::IsExpensive(QueryType::kEaOtm));
  EXPECT_TRUE(PtldbServer::IsExpensive(QueryType::kLdOtm));
}

}  // namespace
}  // namespace ptldb
