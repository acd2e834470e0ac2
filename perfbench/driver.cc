// Benchmark driver: builds PTLDB from a seeded synthetic Denver (scale 0.1),
// drives a PtldbServer with one of three workloads, checks a seeded sample
// of answers against the CSA / brute oracles and prints one JSON result
// line. Every layer is measured from outside: wall time around the calls
// into the generator, the TTL builder, PtldbDatabase and the server, plus
// PtldbDatabase::Snapshot() deltas over the measured window. See README.md
// in this directory for the metric definitions and why each workload
// exists.
//
//   perfbench_driver --workload v2v_warm|v2v_cold|sets_churn --seed N
//                    --seconds S --trace 0|1 [--trace-out PATH]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "common/rng.h"
#include "logic.h"
#include "ptldb/ptldb.h"
#include "server/server.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ptldb::Duration;
using ptldb::EventTime;
using ptldb::MetricsSnapshot;
using ptldb::PtldbDatabase;
using ptldb::PtldbServer;
using ptldb::QueryRequest;
using ptldb::QueryResponse;
using ptldb::QueryType;
using ptldb::StopId;
using ptldb::StopTimeResult;

// --- Fixed workload constants (see README.md for the reasons) ---
constexpr const char* kCity = "Denver";
constexpr double kScale = 0.1;
/// Generator seed of the network, pinned: dataset size then does not vary
/// with --seed (it moved store_mb by 8% and write_ms by 25% between seeds),
/// while the requests, the churned target sets and arrival times still do.
constexpr uint64_t kNetworkSeed = 1;
/// Seed of the fixed target set "T", pinned for the same reason: its
/// stops set the cost of every set query (p50_ms on sets_churn ranged
/// 0.42-0.60 ms when it followed --seed).
constexpr uint64_t kTargetSetSeed = 1;
/// Stops per target set, fixed and churned alike.
constexpr uint32_t kSetSize = 64;
/// kNN capacity of every target set, and the k the reads ask for.
constexpr uint32_t kKmax = 8;
constexpr uint32_t kK = 4;
/// Requests per closed-loop pass. Measured windows are whole passes, so
/// the per-pass engine counts of the one-client cold workload repeat
/// exactly whatever the window length.
constexpr size_t kPassLen = 20000;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;
/// The cold pool holds this fraction of the pages PtldbDatabase::Build
/// writes (the lout and lin label tables).
constexpr uint64_t kColdPoolDivisor = 16;
/// sets_churn: open-loop read rate (about a quarter of one worker's
/// set-query capacity) and the spacing of target-set registrations.
constexpr double kChurnRate = 1000;
constexpr double kWriteIntervalS = 0.5;
/// Writes made on the idle server after the read window of the v2v
/// workloads, so write_ms exists on every workload. They are spaced by
/// kIdleGapS: the host's speed drifts over seconds, and one burst of
/// writes would sample a single moment of it.
constexpr int kIdleWrites = 20;
constexpr double kIdleGapS = 0.2;
/// Answers verified against the oracles after each window.
constexpr uint32_t kCheckSample = 200;
/// Facade-direct probe requests per query type the workload never issues.
constexpr size_t kProbePerType = 1000;
/// Large enough to hold a whole AddTargetSet stall's worth of arrivals
/// below the expensive-class admission limit (half the capacity).
constexpr size_t kQueueCapacity = 4096;
/// Fixed CPU loop of the drift probe.
constexpr uint64_t kDriftIterations = 100'000'000;

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + stream * 0xBF58476D1CE4E5B9ULL + 1;
}

struct Spec {
  std::string name;
  bool cold = false;
  bool churn = false;
  uint32_t clients = 0;  ///< Closed-loop clients; 0 = open loop.
  uint32_t workers = 1;
  /// Time slice of the window's latency and rate figures: long enough to
  /// hold 1,000 requests, so each slice's p99 has 10 beyond it.
  double slice_s = 1;
};

std::optional<Spec> FindSpec(const std::string& name) {
  if (name == "v2v_warm") return Spec{name, false, false, 2, 2, 1};
  if (name == "v2v_cold") return Spec{name, true, false, 1, 1, 1};
  if (name == "sets_churn") return Spec{name, false, true, 0, 2, 1.5};
  return std::nullopt;
}

/// Wall-clock spans from the benchmark's own code, kept in memory and
/// written once at exit. Add() is called from the main thread only.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  int64_t Now() const { return Ns(Clock::now()); }
  int64_t Ns(Clock::time_point tp) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp - origin_)
        .count();
  }
  void Add(const char* name, uint64_t id, int64_t begin, int64_t end) {
    spans_.push_back({name, id, begin, end});
  }
  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) Fail("cannot write trace " + path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"begin_ns\":" << s.begin << ",\"end_ns\":" << s.end << "}\n";
    }
    if (!out.flush()) Fail("cannot write trace " + path);
  }

 private:
  struct Span {
    const char* name;
    uint64_t id;
    int64_t begin;
    int64_t end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

double Seconds(int64_t ns) { return static_cast<double>(ns) / 1e9; }

EventTime EarlyTime(ptldb::Rng* rng, const ptldb::Timetable& tt) {
  const Duration span = tt.max_time() - tt.min_time();
  return tt.min_time() +
         Duration::FromSeconds(static_cast<int64_t>(rng->NextBelow(
             static_cast<uint64_t>(span.raw_seconds() / 4) + 1)));
}

EventTime LateTime(ptldb::Rng* rng, const ptldb::Timetable& tt) {
  const Duration span = tt.max_time() - tt.min_time();
  return tt.max_time() -
         Duration::FromSeconds(static_cast<int64_t>(rng->NextBelow(
             static_cast<uint64_t>(span.raw_seconds() / 4) + 1)));
}

std::vector<StopId> SampleSet(uint64_t seed, uint32_t num_stops) {
  ptldb::Rng rng(seed);
  const std::vector<uint32_t> ids =
      rng.SampleDistinct(num_stops, std::min(kSetSize, num_stops));
  std::vector<StopId> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

/// Journey-planner traffic: EA/LD/SD round-robin over uniform stop pairs,
/// departures from the first quarter of the timetable, deadlines from the
/// last (paper §4).
std::vector<QueryRequest> V2vStream(const ptldb::Timetable& tt, uint64_t seed,
                                    size_t n) {
  ptldb::Rng rng(seed);
  std::vector<QueryRequest> out(n);
  for (size_t i = 0; i < n; ++i) {
    QueryRequest& r = out[i];
    r.s = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    r.g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    switch (i % 3) {
      case 0:
        r.type = QueryType::kV2vEa;
        r.t = EarlyTime(&rng, tt);
        break;
      case 1:
        r.type = QueryType::kV2vLd;
        r.t = LateTime(&rng, tt);  // The deadline.
        break;
      default:
        r.type = QueryType::kV2vSd;
        r.t = EarlyTime(&rng, tt);
        r.t_end = LateTime(&rng, tt);
        break;
    }
  }
  return out;
}

/// Geomarketing reads against target set "T": EA/LD kNN and EA/LD
/// one-to-many round-robin.
std::vector<QueryRequest> SetStream(const ptldb::Timetable& tt, uint64_t seed,
                                    size_t n) {
  static constexpr QueryType kTypes[] = {QueryType::kEaKnn, QueryType::kLdKnn,
                                         QueryType::kEaOtm, QueryType::kLdOtm};
  ptldb::Rng rng(seed);
  std::vector<QueryRequest> out(n);
  for (size_t i = 0; i < n; ++i) {
    QueryRequest& r = out[i];
    r.type = kTypes[i % 4];
    r.set_name = "T";
    r.s = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    const bool ld = r.type == QueryType::kLdKnn || r.type == QueryType::kLdOtm;
    r.t = ld ? LateTime(&rng, tt) : EarlyTime(&rng, tt);
    r.k = (r.type == QueryType::kEaKnn || r.type == QueryType::kLdKnn) ? kK : 0;
  }
  return out;
}

/// `n` requests of one query type, for the facade-direct probe.
std::vector<QueryRequest> TypeStream(const ptldb::Timetable& tt, QueryType type,
                                     uint64_t seed, size_t n) {
  const bool v2v = !PtldbServer::IsExpensive(type);
  std::vector<QueryRequest> pool =
      v2v ? V2vStream(tt, seed, 3 * n) : SetStream(tt, seed, 4 * n);
  std::vector<QueryRequest> out;
  for (QueryRequest& r : pool) {
    if (r.type == type) out.push_back(std::move(r));
  }
  return out;
}

bool CallFacade(PtldbDatabase* db, const QueryRequest& r) {
  switch (r.type) {
    case QueryType::kV2vEa:
      return db->EarliestArrival(r.s, r.g, r.t).ok();
    case QueryType::kV2vLd:
      return db->LatestDeparture(r.s, r.g, r.t).ok();
    case QueryType::kV2vSd:
      return db->ShortestDuration(r.s, r.g, r.t, r.t_end).ok();
    case QueryType::kEaKnn:
      return db->EaKnn(r.set_name, r.s, r.t, r.k).ok();
    case QueryType::kLdKnn:
      return db->LdKnn(r.set_name, r.s, r.t, r.k).ok();
    case QueryType::kEaOtm:
      return db->EaOneToMany(r.set_name, r.s, r.t).ok();
    case QueryType::kLdOtm:
      return db->LdOneToMany(r.set_name, r.s, r.t).ok();
  }
  return false;
}

// --- Set-up ---

struct System {
  ptldb::Timetable tt;
  ptldb::TtlIndex index;
  std::vector<StopId> targets;  ///< Target set "T", sorted.
  std::unique_ptr<PtldbDatabase> db;
  std::unique_ptr<PtldbServer> server;  ///< Declared last: stops first.
  double generate_s = 0;
  double ttl_s = 0;
  double build_s = 0;
  double add_set_s = 0;
  double total_s = 0;
  uint64_t pool_pages = 0;
};

std::unique_ptr<PtldbDatabase> BuildDb(const ptldb::TtlIndex& index,
                                       const ptldb::PtldbOptions& options) {
  auto db = PtldbDatabase::Build(index, options);
  if (!db.ok()) Fail("Build: " + db.status().ToString());
  return std::move(db).value();
}

/// Start to ready: generate, TTL build, Build, the fixed target set and
/// server start. Single-threaded builds throughout.
std::unique_ptr<System> SetUp(const Spec& spec, Tracer* tracer) {
  auto sys = std::make_unique<System>();
  const int64_t t0 = tracer->Now();
  auto tt = ptldb::GenerateNetwork(
      ptldb::CityOptions(*ptldb::FindCityProfile(kCity), kScale, kNetworkSeed));
  if (!tt.ok()) Fail("GenerateNetwork: " + tt.status().ToString());
  sys->tt = std::move(tt).value();
  const int64_t t1 = tracer->Now();
  ptldb::TtlBuildOptions ttl_options;
  ttl_options.num_threads = 1;
  auto index = ptldb::BuildTtlIndex(sys->tt, ttl_options);
  if (!index.ok()) Fail("BuildTtlIndex: " + index.status().ToString());
  sys->index = std::move(index).value();
  const int64_t t2 = tracer->Now();
  ptldb::PtldbOptions options;
  if (spec.cold) {
    // The pool is sized from what Build writes, so a sizing build on the
    // default pool comes first; both count toward setup.
    const auto probe = BuildDb(sys->index, options);
    options.device = ptldb::DeviceProfile::SataSsd();
    options.buffer_pool_pages = std::max<uint64_t>(
        1, probe->size_bytes() / ptldb::kPageSize / kColdPoolDivisor);
  }
  sys->pool_pages = options.buffer_pool_pages;
  sys->db = BuildDb(sys->index, options);
  const int64_t t3 = tracer->Now();
  sys->targets = SampleSet(kTargetSetSeed, sys->tt.num_stops());
  if (const ptldb::Status s =
          sys->db->AddTargetSet("T", sys->index, sys->targets, kKmax);
      !s.ok()) {
    Fail("AddTargetSet: " + s.ToString());
  }
  const int64_t t4 = tracer->Now();
  ptldb::ServerOptions server_options;
  server_options.num_workers = spec.workers;
  server_options.queue_capacity = kQueueCapacity;
  sys->server = std::make_unique<PtldbServer>(sys->db.get(), server_options);
  const int64_t t5 = tracer->Now();
  tracer->Add("setup.generate", 0, t0, t1);
  tracer->Add("setup.ttl_build", 0, t1, t2);
  tracer->Add("setup.db_build", 0, t2, t3);
  tracer->Add("setup.add_set", 0, t3, t4);
  sys->generate_s = Seconds(t1 - t0);
  sys->ttl_s = Seconds(t2 - t1);
  sys->build_s = Seconds(t3 - t2);
  sys->add_set_s = Seconds(t4 - t3);
  sys->total_s = Seconds(t5 - t0);
  return sys;
}

// --- Load generation ---

/// One answered request of a measured window.
struct Sample {
  uint64_t id;       ///< Sequence number within the window.
  int64_t begin;     ///< Submit (closed loop) or scheduled send (open loop).
  int64_t end;       ///< Callback entry.
  bool ok;
};

struct Window {
  std::vector<Sample> samples;
  int64_t start = 0;
  double seconds = 0;
  /// Answers kept for the oracle check, indexed by stream position.
  std::vector<std::optional<QueryResponse>> answers;
  std::vector<Interval> writes;  ///< AddTargetSet calls inside the window.
  uint64_t failed_writes = 0;
  double max_late_ms = 0;  ///< Open loop: how late the generator ran.
};

std::vector<char> CheckMask(uint64_t seed, size_t n) {
  std::vector<char> keep(n, 0);
  ptldb::Rng rng(seed);
  for (const uint32_t i : rng.SampleDistinct(
           static_cast<uint32_t>(n),
           std::min<uint32_t>(kCheckSample, static_cast<uint32_t>(n)))) {
    keep[i] = 1;
  }
  return keep;
}

/// Closed loop: `clients` threads each submit, wait for the callback, and
/// submit the next request of `stream` (shared cursor, cyclic). With
/// `seconds` > 0 the window runs whole passes until `seconds` have passed;
/// with 0 it runs exactly one pass (warm-up).
Window RunClosedLoop(PtldbServer* server, const std::vector<QueryRequest>& stream,
                     uint32_t clients, double seconds,
                     const std::vector<char>& keep, const Tracer& clock) {
  const size_t n = stream.size();
  Window w;
  w.answers.resize(n);
  std::mutex mu;
  uint64_t cursor = 0;
  uint64_t limit = seconds > 0 ? UINT64_MAX : n;
  std::vector<std::vector<Sample>> logs(clients);
  const int64_t start = clock.Now();
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Sample>& log = logs[c];
      log.reserve(static_cast<size_t>(std::max(seconds, 1.0) * 200000));
      std::atomic<uint32_t> done{0};
      int64_t end = 0;
      bool ok = false;
      for (;;) {
        uint64_t seq;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (cursor >= limit) break;
          seq = cursor++;
        }
        const size_t i = seq % n;
        const bool keep_answer = seq < n && keep[i] != 0;
        const int64_t begin = clock.Now();
        server->Submit(stream[i], [&, keep_answer, i](QueryResponse resp) {
          end = clock.Now();
          ok = resp.status.ok();
          if (keep_answer) w.answers[i] = std::move(resp);
          done.store(1, std::memory_order_release);
          done.notify_one();
        });
        while (done.load(std::memory_order_acquire) == 0) {
          done.wait(0, std::memory_order_acquire);
        }
        done.store(0, std::memory_order_relaxed);
        log.push_back({seq, begin, end, ok});
      }
    });
  }
  if (seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    std::lock_guard<std::mutex> lock(mu);
    limit = (cursor + n - 1) / n * n;
  }
  for (std::thread& t : threads) t.join();
  w.start = start;
  w.seconds = Seconds(clock.Now() - start);
  for (const auto& log : logs) {
    w.samples.insert(w.samples.end(), log.begin(), log.end());
  }
  return w;
}

/// Open loop: request i is sent at `start + offsets[i]` whether or not
/// earlier ones were answered; latency runs from that scheduled instant.
/// A writer thread registers `num_writes` fresh target sets, one every
/// kWriteIntervalS, while the reads run.
Window RunOpenLoop(System* sys, const std::vector<QueryRequest>& stream,
                   const std::vector<int64_t>& offsets,
                   const std::vector<char>& keep, int num_writes,
                   uint64_t write_seed, const Tracer& clock) {
  const size_t n = stream.size();
  Window w;
  w.answers.resize(n);
  w.samples.resize(n);
  std::atomic<size_t> responded{0};
  const Clock::time_point start_tp =
      Clock::now() + std::chrono::milliseconds(1);  // Writer spin-up.
  const int64_t start = clock.Ns(start_tp);
  std::vector<Interval> writes(static_cast<size_t>(num_writes));
  std::atomic<uint64_t> failed_writes{0};
  std::thread writer([&] {
    for (int j = 0; j < num_writes; ++j) {
      std::this_thread::sleep_until(
          start_tp + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>((j + 0.5) *
                                                       kWriteIntervalS)));
      const std::vector<StopId> set = SampleSet(
          SubSeed(write_seed, static_cast<uint64_t>(j)), sys->tt.num_stops());
      const int64_t b = clock.Now();
      const ptldb::Status s = sys->db->AddTargetSet(
          "W" + std::to_string(j), sys->index, set, kKmax);
      writes[static_cast<size_t>(j)] = {b, clock.Now()};
      if (!s.ok()) failed_writes.fetch_add(1);
    }
  });
  int64_t max_late = 0;
  for (size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(start_tp + std::chrono::nanoseconds(offsets[i]));
    const int64_t due = start + offsets[i];
    max_late = std::max(max_late, clock.Now() - due);
    const bool keep_answer = keep[i] != 0;
    sys->server->Submit(stream[i], [&, i, due, keep_answer](QueryResponse resp) {
      w.samples[i] = {i, due, clock.Now(), resp.status.ok()};
      if (keep_answer) w.answers[i] = std::move(resp);
      responded.fetch_add(1, std::memory_order_release);
    });
  }
  writer.join();
  const int64_t drain_deadline = clock.Now() + 60'000'000'000;
  while (responded.load(std::memory_order_acquire) < n) {
    if (clock.Now() > drain_deadline) Fail("server did not answer every read");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  int64_t last = start;
  for (const Sample& s : w.samples) last = std::max(last, s.end);
  w.start = start;
  w.seconds = Seconds(last - start);
  w.writes = std::move(writes);
  w.failed_writes = failed_writes.load();
  w.max_late_ms = static_cast<double>(max_late) / 1e6;
  return w;
}

/// Registers `count` fresh target sets, kIdleGapS apart, on an otherwise
/// idle server; returns their [begin, end) intervals.
std::vector<Interval> IdleWrites(System* sys, int count, uint64_t write_seed,
                                 uint64_t* failed, const Tracer& clock) {
  std::vector<Interval> out;
  for (int j = 0; j < count; ++j) {
    const std::vector<StopId> set = SampleSet(
        SubSeed(write_seed, static_cast<uint64_t>(j)), sys->tt.num_stops());
    const int64_t b = clock.Now();
    const ptldb::Status s = sys->db->AddTargetSet("W" + std::to_string(j),
                                                  sys->index, set, kKmax);
    out.push_back({b, clock.Now()});
    if (!s.ok()) ++*failed;
    std::this_thread::sleep_for(std::chrono::duration<double>(kIdleGapS));
  }
  return out;
}

// --- Answer check ---

bool SameKnn(const std::vector<StopTimeResult>& got,
             const std::vector<StopTimeResult>& full, uint32_t k) {
  // Ties at equal times may list different stops; every listed stop must
  // carry its true time and the times must match position by position.
  if (got.size() != std::min<size_t>(k, full.size())) return false;
  std::map<StopId, EventTime> truth;
  for (const StopTimeResult& r : full) truth.emplace(r.stop, r.time);
  std::vector<StopId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const auto it = truth.find(got[i].stop);
    if (got[i].time != full[i].time || it == truth.end() ||
        it->second != got[i].time ||
        std::find(seen.begin(), seen.end(), got[i].stop) != seen.end()) {
      return false;
    }
    seen.push_back(got[i].stop);
  }
  return true;
}

/// Verifies the kept answers against the oracles. Skips what the oracles
/// exclude (s == g; q in T) and non-OK responses (already failures).
/// Returns the number of mismatches; `checked` counts compared answers.
uint64_t CheckAnswers(const System& sys, const std::vector<QueryRequest>& stream,
                      const Window& w, uint64_t* checked) {
  uint64_t wrong = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!w.answers[i].has_value() || !w.answers[i]->status.ok()) continue;
    const QueryRequest& r = stream[i];
    const QueryResponse& a = *w.answers[i];
    bool same = true;
    switch (r.type) {
      case QueryType::kV2vEa:
      case QueryType::kV2vLd:
      case QueryType::kV2vSd:
        if (r.s == r.g) continue;
        if (r.type == QueryType::kV2vEa) {
          same = a.time == ptldb::EarliestArrival(sys.tt, r.s, r.g, r.t);
        } else if (r.type == QueryType::kV2vLd) {
          same = a.time == ptldb::LatestDeparture(sys.tt, r.s, r.g, r.t);
        } else {
          same = a.duration ==
                 ptldb::ShortestDuration(sys.tt, r.s, r.g, r.t, r.t_end);
        }
        break;
      default: {
        if (std::binary_search(sys.targets.begin(), sys.targets.end(), r.s)) {
          continue;
        }
        const bool ea =
            r.type == QueryType::kEaKnn || r.type == QueryType::kEaOtm;
        const std::vector<StopTimeResult> full =
            ea ? ptldb::BruteEaOneToMany(sys.tt, r.s, sys.targets, r.t)
               : ptldb::BruteLdOneToMany(sys.tt, r.s, sys.targets, r.t);
        same = r.k > 0 ? SameKnn(a.results, full, r.k) : a.results == full;
        break;
      }
    }
    ++*checked;
    if (!same) {
      ++wrong;
      std::fprintf(stderr, "perfbench: wrong answer for %s s=%u g=%u t=%lld\n",
                   ptldb::QueryTypeName(r.type), r.s, r.g,
                   static_cast<long long>(r.t.raw_seconds()));
    }
  }
  return wrong;
}

// --- Measurements ---

/// Seconds of the fixed CPU loop; its drift between runs is the host's.
double DriftProbe() {
  const auto t0 = Clock::now();
  uint64_t x = 88172645463325252ULL;
  for (uint64_t i = 0; i < kDriftIterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  // Keeps the loop from being optimized away.
  if (x == 0) std::fprintf(stderr, "#\n");
  return s;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

uint64_t Counter(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

uint64_t Delta(const MetricsSnapshot& a, const MetricsSnapshot& b,
               const std::string& name) {
  return Counter(b, name) - Counter(a, name);
}

const ptldb::HistogramSummary* Hist(const MetricsSnapshot& s,
                                    const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

double HistP50Us(const MetricsSnapshot& s, const std::string& name) {
  const ptldb::HistogramSummary* h = Hist(s, name);
  return h == nullptr || h->count == 0 ? 0 : h->p50 / 1e3;
}

/// Rate and latency figures of a window: medians over `slice_s` slices of
/// its first `seconds` (one slice when the window is shorter).
SliceMedians Slices(const Window& w, double seconds, double slice_s) {
  std::vector<Interval> requests;
  requests.reserve(w.samples.size());
  for (const Sample& s : w.samples) requests.push_back({s.begin, s.end});
  const double width_s = std::min(slice_s, seconds);
  return MedianOverSlices(requests, w.start,
                          static_cast<int64_t>(width_s * 1e9),
                          static_cast<size_t>(seconds / width_s + 1e-9));
}

/// Table kinds reported under engine.pages.<kind>; set-specific tables
/// are summed over every registered set.
std::map<std::string, double> PagesByKind(PtldbDatabase* db) {
  static constexpr const char* kKinds[] = {"lout",   "lin",    "knn_naive",
                                           "knn_ea", "knn_ld", "otm_ea",
                                           "otm_ld"};
  std::map<std::string, double> out;
  for (const char* kind : kKinds) out[kind] = 0;
  out["other"] = 0;
  for (const std::string& name : db->engine()->table_names()) {
    const ptldb::EngineTable* t = db->engine()->FindTable(name);
    const auto pages = static_cast<double>(t->heap_pages() + t->index_pages());
    std::string kind = "other";
    for (const char* k : kKinds) {
      const std::string prefix = std::string(k) + "_";
      if (name == k || name.rfind(prefix, 0) == 0) kind = k;
    }
    out[kind] += pages;
  }
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!ValidMetricName(metrics[i].name)) Fail("bad metric " + metrics[i].name);
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) Fail("flags come in pairs");
  if (a.seconds <= 0) Fail("--seconds must be positive");
  return a;
}

int Run(const Args& args) {
  const std::optional<Spec> found = FindSpec(args.workload);
  if (!found) Fail("unknown workload " + args.workload);
  const Spec& spec = *found;
  Tracer tracer;

  // Set-up: several times untraced (setup_s is their median), once traced.
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    sys.reset();
    Tracer scratch;
    sys = SetUp(spec, rep == 0 ? &tracer : &scratch);
    setup_s.push_back(sys->total_s);
  }
  PtldbDatabase* db = sys->db.get();
  PtldbServer* server = sys->server.get();

  // Requests: a closed-loop pass or the open-loop schedule, from the seed.
  const uint64_t stream_seed = SubSeed(args.seed, 2);
  std::vector<int64_t> offsets;
  std::vector<QueryRequest> stream;
  if (spec.churn) {
    offsets = OpenLoopSchedule(SubSeed(args.seed, 3), kChurnRate, args.seconds);
    stream = SetStream(sys->tt, stream_seed, offsets.size());
  } else {
    stream = V2vStream(sys->tt, stream_seed, kPassLen);
  }
  const std::vector<char> keep = CheckMask(SubSeed(args.seed, 4), stream.size());
  const uint64_t write_seed = SubSeed(args.seed, 5);

  // Warm-up, excluded: one closed-loop pass of the workload's own reads
  // (the cold pool reaches its steady LRU state; everything else faults in).
  {
    const std::vector<QueryRequest> warm =
        spec.churn ? SetStream(sys->tt, SubSeed(args.seed, 6), kPassLen / 4)
                   : stream;
    const std::vector<char> none(warm.size(), 0);
    RunClosedLoop(server, warm, std::max(1u, spec.clients), 0, none, tracer);
  }

  const double drift_before = DriftProbe();
  // Taken before the window: the request logs of the window grow with
  // throughput, and a faster server must not read as a bigger one.
  const double rss_mb = PeakRssMb();
  db->metrics()->ResetPrefix("phase.");
  server->ResetStats();
  const MetricsSnapshot before = db->Snapshot();
  const uint64_t io_before = db->io_time_ns();
  Window w = spec.churn
                 ? RunOpenLoop(sys.get(), stream, offsets, keep,
                               static_cast<int>(args.seconds / kWriteIntervalS),
                               write_seed, tracer)
                 : RunClosedLoop(server, stream, spec.clients, args.seconds,
                                 keep, tracer);
  const MetricsSnapshot after = db->Snapshot();
  const uint64_t io_ns = db->io_time_ns() - io_before;
  // The store as the window left it: the v2v workloads' idle writes below
  // are not part of their traffic.
  const double store_mb =
      static_cast<double>(db->size_bytes() +
                          (db->label_store() == nullptr
                               ? 0
                               : db->label_store()->bytes_resident())) /
      (1024.0 * 1024.0);
  const std::map<std::string, double> pages = PagesByKind(db);
  const double drift_after = DriftProbe();
  if (!spec.churn) {
    w.writes = IdleWrites(sys.get(), kIdleWrites, write_seed, &w.failed_writes,
                          tracer);
  }

  uint64_t checked = 0;
  const uint64_t wrong = CheckAnswers(*sys, stream, w, &checked);
  uint64_t not_ok = 0;
  for (const Sample& s : w.samples) not_ok += s.ok ? 0 : 1;
  const uint64_t reads = w.samples.size();
  const uint64_t attempted = reads + w.writes.size();
  const uint64_t failed = not_ok + wrong + w.failed_writes;
  const double q = static_cast<double>(std::max<uint64_t>(reads, 1));

  const SliceMedians sliced = Slices(w, args.seconds, spec.slice_s);
  const double tail = TailPercentile(sliced.min_count);
  const double p50_ms = sliced.p50 / 1e6;
  const double p99_ms = sliced.p99 / 1e6;
  std::vector<double> write_ms;
  for (const Interval& iv : w.writes) {
    write_ms.push_back(static_cast<double>(iv.end - iv.begin) / 1e6);
  }
  const double io_ms = static_cast<double>(io_ns) / 1e6 / q;
  const double fail_frac = static_cast<double>(failed) /
                           static_cast<double>(std::max<uint64_t>(attempted, 1));
  const double misses_per_q =
      static_cast<double>(Delta(before, after, "bufferpool.misses")) / q;
  const double device_reads_per_q =
      static_cast<double>(Delta(before, after, "device.reads")) / q;

  std::printf(
      "# %s seed=%llu: %llu reads in %.3f s, %llu writes, %llu answers "
      "checked, %llu wrong, %llu not ok\n",
      spec.name.c_str(), static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(reads), w.seconds,
      static_cast<unsigned long long>(w.writes.size()),
      static_cast<unsigned long long>(checked),
      static_cast<unsigned long long>(wrong),
      static_cast<unsigned long long>(not_ok));
  std::printf(
      "# diagnostics: drift_probe_s before=%.4f after=%.4f; io_ms=%.6g "
      "misses_per_q=%.6g device_reads_per_q=%.6g fail_frac=%.6g; "
      "highest tail p%.4g supported by every slice (fewest %zu samples); "
      "generator late by at most %.3f ms; pool %llu pages\n",
      drift_before, drift_after, io_ms, misses_per_q, device_reads_per_q,
      fail_frac, tail * 100, sliced.min_count, w.max_late_ms,
      static_cast<unsigned long long>(sys->pool_pages));
  std::printf("# write_ms:");
  for (const double ms : write_ms) std::printf(" %.2f", ms);
  std::printf("\n");
  if (tail < 0.99) {
    Fail("too few samples for p99 in a slice (" +
         std::to_string(sliced.min_count) + ")");
  }
  const bool correct = wrong == 0;

  if (!args.trace) {
    PrintResult(correct, attempted, failed,
                {{"setup_s", Median(setup_s), "s"},
                 {"qps", sliced.per_second, "1/s"},
                 {"p50_ms", p50_ms, "ms"},
                 {"p99_ms", p99_ms, "ms"},
                 {"write_ms", Median(write_ms), "ms"},
                 {"store_mb", store_mb, "MiB"},
                 {"rss_mb", rss_mb, "MiB"}});
    return correct ? 0 : 1;
  }

  // --- Traced run: spans of this window, then the facade pass ---
  for (const Sample& s : w.samples) tracer.Add("request", s.id, s.begin, s.end);
  for (size_t j = 0; j < w.writes.size(); ++j) {
    tracer.Add("write", j, w.writes[j].begin, w.writes[j].end);
  }
  // Replay the window's requests (one pass) straight against the facade:
  // same order, no server, no schedule waits.
  std::vector<int64_t> facade_ns;
  std::map<QueryType, std::vector<int64_t>> by_type;
  uint64_t facade_id = 0;
  const auto call = [&](const QueryRequest& r, bool timed) {
    const int64_t b = tracer.Now();
    if (!CallFacade(db, r)) Fail("facade call failed");
    const int64_t e = tracer.Now();
    if (!timed) return;
    tracer.Add("facade", facade_id++, b, e);
    facade_ns.push_back(e - b);
    by_type[r.type].push_back(e - b);
  };
  for (const QueryRequest& r : stream) call(r, true);
  std::vector<int64_t> replay = facade_ns;
  std::sort(replay.begin(), replay.end());
  // Types the workload never issues: a warm-up pass, then a timed pass.
  for (size_t t = 0; t < ptldb::kNumQueryTypes; ++t) {
    const auto type = static_cast<QueryType>(t);
    if (by_type.count(type) != 0) continue;
    const std::vector<QueryRequest> probe =
        TypeStream(sys->tt, type, SubSeed(args.seed, 10 + t), kProbePerType);
    for (const QueryRequest& r : probe) call(r, false);
    for (const QueryRequest& r : probe) call(r, true);
  }

  std::vector<Metric> m;
  const auto per_q = [&](const char* counter) {
    return static_cast<double>(Delta(before, after, counter)) / q;
  };
  const double hits = static_cast<double>(Delta(before, after, "bufferpool.hits"));
  const double misses =
      static_cast<double>(Delta(before, after, "bufferpool.misses"));
  const double dev_reads =
      static_cast<double>(Delta(before, after, "device.reads"));
  const double facade_p50_us =
      static_cast<double>(Percentile(replay, 0.5)) / 1e3;
  double queue_wait_us = 0;
  uint64_t queue_wait_n = 0;
  for (const char* cls : {"interactive", "expensive"}) {
    const ptldb::HistogramSummary* h =
        Hist(after, std::string("server.queue_wait.") + cls + "_ns");
    if (h != nullptr && h->count > queue_wait_n) {
      queue_wait_n = h->count;
      queue_wait_us = h->p50 / 1e3;
    }
  }
  m.push_back({"server.queue_wait_us", queue_wait_us, "us"});
  m.push_back({"server.handoff_us", p50_ms * 1e3 - facade_p50_us, "us"});
  for (size_t t = 0; t < ptldb::kNumQueryTypes; ++t) {
    const auto type = static_cast<QueryType>(t);
    std::vector<int64_t>& v = by_type[type];
    std::sort(v.begin(), v.end());
    m.push_back({std::string("ptldb.facade_us.") + ptldb::QueryTypeName(type),
                 static_cast<double>(Percentile(v, 0.5)) / 1e3, "us"});
  }
  m.push_back({"ptldb.hubs_merged_per_q", per_q("ttl.hubs_merged"), "count"});
  m.push_back({"ptldb.label_cmps_per_q", per_q("ttl.label_comparisons"), "count"});
  m.push_back({"ptldb.decoded_bytes_per_q", per_q("ttl.labels.decoded_bytes"), "B"});
  m.push_back({"ptldb.vm_steps_per_q", per_q("exec.vm_steps"), "count"});
  m.push_back({"ptldb.tuples_scanned_per_q", per_q("exec.tuples_scanned"), "count"});
  m.push_back({"ptldb.rows_emitted_per_q", per_q("exec.rows_emitted"), "count"});
  m.push_back({"ptldb.index_seeks_per_q", per_q("exec.index_seeks"), "count"});
  m.push_back({"ptldb.build_s", sys->build_s, "s"});
  m.push_back({"ptldb.add_set_ms", sys->add_set_s * 1e3, "ms"});
  std::vector<int64_t> due;
  due.reserve(w.samples.size());
  for (const Sample& s : w.samples) due.push_back(s.begin);
  std::sort(due.begin(), due.end());
  m.push_back({"ptldb.stalled_frac", StalledFraction(due, w.writes), "ratio"});
  m.push_back({"engine.hit_ratio",
               hits + misses == 0 ? 1.0 : hits / (hits + misses), "ratio"});
  m.push_back({"engine.misses_per_q", misses_per_q, "count"});
  m.push_back({"engine.evictions_per_q", per_q("bufferpool.evictions"), "count"});
  m.push_back({"engine.device_reads_per_q", device_reads_per_q, "count"});
  m.push_back({"engine.seq_read_frac",
               dev_reads == 0 ? 0.0
                              : static_cast<double>(Delta(
                                    before, after, "device.sequential_reads")) /
                                    dev_reads,
               "ratio"});
  for (const auto& [kind, n] : pages) {
    m.push_back({"engine.pages." + kind, n, "pages"});
  }
  m.push_back({"timetable.generate_s", sys->generate_s, "s"});
  m.push_back({"ttl.build_s", sys->ttl_s, "s"});
  m.push_back({"ttl.labels_per_stop", sys->index.tuples_per_vertex(), "count"});
  // Query-log phases: wall time only (modeled device time is io_ms).
  std::string largest;
  double largest_ns = 0;
  double total_ns = 0;
  for (size_t p = 0; p < ptldb::kNumQueryPhases; ++p) {
    const char* name = ptldb::QueryPhaseName(static_cast<ptldb::QueryPhase>(p));
    const ptldb::HistogramSummary* h =
        Hist(after, std::string("phase.") + name + ".ns");
    const double sum = h == nullptr ? 0 : static_cast<double>(h->sum);
    total_ns += sum;
    if (sum > largest_ns) {
      largest_ns = sum;
      largest = name;
    }
  }
  for (const char* phase : {"plan", "merge", "label_decode", "buffer_io",
                            "queue_wait", "callback"}) {
    m.push_back({std::string("phase.") + phase + "_us",
                 HistP50Us(after, std::string("phase.") + phase + ".ns"), "us"});
  }
  m.push_back({"io_ms", io_ms, "ms"});
  m.push_back({"fail_frac", fail_frac, "ratio"});
  m.push_back({"traced.p50_ms", p50_ms, "ms"});
  std::printf(
      "# largest layer of request time on %s: %s (%.1f%% of wall time in "
      "the query log's phases); modeled device time %.4g ms/request is "
      "reported apart as io_ms\n",
      spec.name.c_str(), largest.c_str(),
      total_ns == 0 ? 0.0 : 100.0 * largest_ns / total_ns, io_ms);
  if (!args.trace_out.empty()) tracer.Write(args.trace_out);
  PrintResult(correct, attempted, failed, m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
