// Randomized differential test harness: PTLDB answers vs. timetable-level
// ground truth on many seeded synthetic networks.
//
// For each of the 32 seeds a small random city is generated, a TTL index is
// built (with PTLDB_TEST_THREADS workers — the build is deterministic, see
// ttl_determinism_test), and every one of the seven query types is
// cross-checked against an oracle that never looks at labels:
//   EA / LD / SD        vs. the Connection Scan baselines (baseline/csa.h)
//   EA-kNN / LD-kNN     vs. brute-force enumeration (baseline/brute.h)
//   EA-OTM / LD-OTM     vs. brute-force enumeration
//
// On a mismatch the harness SHRINKS the failing case — greedily dropping
// targets and lowering k while the query still disagrees — and prints one
// "minimal failing repro" line with the (seed, query, args) tuple, so a
// failure report is directly replayable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "common/rng.h"
#include "ptldb/ptldb.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

#include "sql_oracle.h"
#include "test_time.h"

namespace ptldb {
namespace {

constexpr uint64_t kNumSeeds = 32;
constexpr uint32_t kMaxK = 8;

// Worker threads used for index and table construction. The CI "Threads"
// job runs the suite with PTLDB_TEST_THREADS=1 and =8; the default of 2
// keeps the pool exercised in ordinary runs.
uint32_t TestThreads() {
  if (const char* env = std::getenv("PTLDB_TEST_THREADS");
      env != nullptr && *env != '\0') {
    return static_cast<uint32_t>(std::atoi(env));
  }
  return 2;
}

struct Network {
  Timetable tt;
  TtlIndex index;
  std::vector<StopId> targets;
  /// Distinct departure/arrival times, for boundary-biased timestamps.
  std::vector<EventTime> events;
};

Network MakeNetwork(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  GeneratorOptions o;
  o.num_stops = static_cast<uint32_t>(rng.NextInRange(24, 64));
  o.target_connections = static_cast<uint64_t>(rng.NextInRange(500, 2000));
  o.min_route_len = 3;
  o.max_route_len = 8;
  o.seed = seed;
  Network net;
  auto tt = GenerateNetwork(o);
  EXPECT_TRUE(tt.ok());
  net.tt = std::move(tt).value();

  TtlBuildOptions build;
  build.num_threads = TestThreads();
  auto index = BuildTtlIndex(net.tt, build);
  EXPECT_TRUE(index.ok());
  net.index = std::move(index).value();

  const auto num_targets =
      static_cast<uint32_t>(rng.NextInRange(4, 8));
  net.targets = rng.SampleDistinct(net.tt.num_stops(), num_targets);
  // Every fourth seed hands AddTargetSet a list with duplicates: target
  // lists have set semantics, so answers must match the deduplicated list
  // (the brute oracles dedup the same way).
  if (seed % 4 == 0) {
    net.targets.push_back(net.targets[0]);
    net.targets.push_back(net.targets[net.targets.size() / 2]);
  }

  for (const Connection& c : net.tt.connections()) {
    net.events.push_back(c.dep);
    net.events.push_back(c.arr);
  }
  std::sort(net.events.begin(), net.events.end());
  net.events.erase(std::unique(net.events.begin(), net.events.end()),
                   net.events.end());
  return net;
}

/// Half the query timestamps land exactly on a departure/arrival event (or
/// one second to either side) instead of uniformly inside the window:
/// exact-equality boundaries in the label binary searches and the bucket
/// tables only get exercised when t collides with an event.
EventTime RandomTime(Rng* rng, const Network& net) {
  if (rng->NextBelow(2) == 0) {
    const EventTime base = net.events[rng->NextBelow(
        static_cast<uint64_t>(net.events.size()))];
    return base + DSec(static_cast<int64_t>(rng->NextBelow(3))) - DSec(1);
  }
  return TSec(rng->NextInRange(net.tt.min_time().raw_seconds(),
                               net.tt.max_time().raw_seconds()));
}

// Fresh in-memory database over `index` with one target set named "t"
// (lower case: the SQL lexer folds identifiers, so SqlOracle's literal
// SQL names the same tables).
std::unique_ptr<PtldbDatabase> MakeDb(const TtlIndex& index,
                                      const std::vector<StopId>& targets,
                                      uint32_t kmax) {
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  options.num_threads = TestThreads();
  auto db = PtldbDatabase::Build(index, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_TRUE((*db)->AddTargetSet("t", index, targets, kmax).ok());
  return std::move(db).value();
}

// ---------- Oracles (return a mismatch description, or nullopt) ----------

std::optional<std::string> CheckV2v(PtldbDatabase* db, const Timetable& tt,
                                    const char* type, StopId s, StopId g,
                                    EventTime t, EventTime t_end) {
  if (std::string(type) == "SD") {
    const Result<Duration> got = db->ShortestDuration(s, g, t, t_end);
    if (!got.ok()) return "query error: " + got.status().ToString();
    const Duration want = ShortestDuration(tt, s, g, t, t_end);
    if (*got != want) {
      std::ostringstream ss;
      ss << "got " << *got << ", csa oracle " << want;
      return ss.str();
    }
    return std::nullopt;
  }
  const bool ea = std::string(type) == "EA";
  const Result<EventTime> got =
      ea ? db->EarliestArrival(s, g, t) : db->LatestDeparture(s, g, t);
  if (!got.ok()) return "query error: " + got.status().ToString();
  const EventTime want =
      ea ? EarliestArrival(tt, s, g, t) : LatestDeparture(tt, s, g, t);
  if (*got != want) {
    std::ostringstream ss;
    ss << "got " << *got << ", csa oracle " << want;
    return ss.str();
  }
  return std::nullopt;
}

// kNN answers may differ from the brute list on stops tied at the k-th
// position ("ties broken arbitrarily"), so validate shape: same times
// position-by-position, distinct stops, every stop's true time reported.
std::optional<std::string> ValidateKnn(
    const std::vector<StopTimeResult>& got,
    const std::vector<StopTimeResult>& brute_full, uint32_t k) {
  std::map<StopId, EventTime> truth;
  for (const auto& r : brute_full) truth.emplace(r.stop, r.time);
  const size_t expected = std::min<size_t>(k, brute_full.size());
  std::ostringstream ss;
  if (got.size() != expected) {
    ss << "row count " << got.size() << " != " << expected;
    return ss.str();
  }
  std::set<StopId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].time != brute_full[i].time) {
      ss << "time " << got[i].time << " at position " << i << " != brute "
         << brute_full[i].time;
      return ss.str();
    }
    if (!seen.insert(got[i].stop).second) {
      ss << "duplicate stop " << got[i].stop;
      return ss.str();
    }
    const auto it = truth.find(got[i].stop);
    if (it == truth.end()) {
      ss << "stop " << got[i].stop << " not reachable per oracle";
      return ss.str();
    }
    if (it->second != got[i].time) {
      ss << "stop " << got[i].stop << " time " << got[i].time
         << " != true time " << it->second;
      return ss.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> ValidateOtm(
    const std::vector<StopTimeResult>& got,
    const std::vector<StopTimeResult>& brute) {
  std::ostringstream ss;
  if (got.size() != brute.size()) {
    ss << "row count " << got.size() << " != " << brute.size();
    return ss.str();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == brute[i])) {
      ss << "row " << i << " = (" << got[i].stop << ", " << got[i].time
         << ") != brute (" << brute[i].stop << ", " << brute[i].time << ")";
      return ss.str();
    }
  }
  return std::nullopt;
}

// Runs one set query (EA-kNN/LD-kNN/EA-OTM/LD-OTM) against a FRESH database
// built for exactly `targets` — rebuilt each call so the shrinker can
// re-evaluate candidate target subsets.
std::optional<std::string> CheckSetQuery(const Network& net,
                                         const std::vector<StopId>& targets,
                                         const char* type, StopId q,
                                         EventTime t, uint32_t k) {
  auto db = MakeDb(net.index, targets, kMaxK);
  const std::string type_s = type;
  Result<std::vector<StopTimeResult>> got = std::vector<StopTimeResult>{};
  if (type_s == "EA-kNN") {
    got = db->EaKnn("t", q, t, k);
  } else if (type_s == "LD-kNN") {
    got = db->LdKnn("t", q, t, k);
  } else if (type_s == "EA-OTM") {
    got = db->EaOneToMany("t", q, t);
  } else {
    got = db->LdOneToMany("t", q, t);
  }
  if (!got.ok()) return "query error: " + got.status().ToString();
  const bool ea = type_s == "EA-kNN" || type_s == "EA-OTM";
  const auto brute = ea ? BruteEaOneToMany(net.tt, q, targets, t)
                        : BruteLdOneToMany(net.tt, q, targets, t);
  if (type_s == "EA-kNN" || type_s == "LD-kNN") {
    return ValidateKnn(*got, brute, k);
  }
  return ValidateOtm(*got, brute);
}

std::string FormatTargets(const std::vector<StopId>& targets) {
  std::ostringstream ss;
  ss << "[";
  for (size_t i = 0; i < targets.size(); ++i) {
    if (i != 0) ss << ",";
    ss << targets[i];
  }
  ss << "]";
  return ss.str();
}

// Greedy shrink of a failing set-query case: drop targets one at a time and
// lower k while the mismatch persists. Returns the minimal repro line.
std::string ShrinkSetCase(const Network& net, uint64_t seed, const char* type,
                          StopId q, EventTime t, uint32_t k,
                          std::vector<StopId> targets, std::string detail) {
  bool progress = true;
  while (progress && targets.size() > 1) {
    progress = false;
    for (size_t i = 0; i < targets.size(); ++i) {
      std::vector<StopId> candidate = targets;
      candidate.erase(candidate.begin() + static_cast<long>(i));
      if (auto still = CheckSetQuery(net, candidate, type, q, t, k)) {
        targets = std::move(candidate);
        detail = std::move(*still);
        progress = true;
        break;
      }
    }
  }
  while (k > 1) {
    if (auto still = CheckSetQuery(net, targets, type, q, t, k - 1)) {
      --k;
      detail = std::move(*still);
    } else {
      break;
    }
  }
  std::ostringstream ss;
  ss << "minimal failing repro: seed=" << seed << " query=" << type
     << " q=" << q << " t=" << t << " k=" << k
     << " targets=" << FormatTargets(targets) << " -- " << detail;
  return ss.str();
}

std::string FormatV2vCase(uint64_t seed, const char* type, StopId s, StopId g,
                          EventTime t, EventTime t_end,
                          const std::string& detail) {
  std::ostringstream ss;
  ss << "minimal failing repro: seed=" << seed << " query=" << type
     << " s=" << s << " g=" << g << " t=" << t;
  if (std::string(type) == "SD") ss << " t_end=" << t_end;
  ss << " -- " << detail;
  return ss.str();
}

TEST(DifferentialTest, AllQueryTypesMatchOraclesOnRandomNetworks) {
  uint32_t failures = 0;
  constexpr uint32_t kMaxReportedFailures = 5;
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    const Network net = MakeNetwork(seed);
    auto db = MakeDb(net.index, net.targets, kMaxK);
    Rng rng(seed * 6364136223846793005ULL + 1442695040888963407ULL);
    const EventTime lo = net.tt.min_time();
    const EventTime hi = net.tt.max_time();

    for (int trial = 0; trial < 12 && failures < kMaxReportedFailures;
         ++trial) {
      // v2v triple: s != g, t anywhere in the service window.
      StopId s = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      StopId g = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      if (g == s) g = (g + 1) % net.tt.num_stops();
      const EventTime t = RandomTime(&rng, net);
      const auto t_end = std::max(
          t, TSec(rng.NextInRange(lo.raw_seconds(), hi.raw_seconds())));
      for (const char* type : {"EA", "LD", "SD"}) {
        if (auto bad = CheckV2v(db.get(), net.tt, type, s, g, t, t_end)) {
          ADD_FAILURE() << FormatV2vCase(seed, type, s, g, t, t_end, *bad);
          ++failures;
        }
      }
    }

    for (int trial = 0; trial < 4 && failures < kMaxReportedFailures;
         ++trial) {
      // Any stop may be the source — q inside the target set has defined
      // "stay put" semantics (EA reports t, LD reports t_end) that the
      // brute oracles implement identically.
      const StopId q = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      const EventTime t = RandomTime(&rng, net);
      const auto k = static_cast<uint32_t>(rng.NextInRange(1, kMaxK));
      for (const char* type : {"EA-kNN", "LD-kNN", "EA-OTM", "LD-OTM"}) {
        const bool knn = type[3] == 'k';
        // The main db already has the full target set loaded; reuse it for
        // the first evaluation, then shrink with fresh databases.
        std::optional<std::string> bad;
        if (knn) {
          auto got = std::string(type) == "EA-kNN" ? db->EaKnn("t", q, t, k)
                                                   : db->LdKnn("t", q, t, k);
          if (!got.ok()) {
            bad = "query error: " + got.status().ToString();
          } else {
            const auto brute =
                std::string(type) == "EA-kNN"
                    ? BruteEaOneToMany(net.tt, q, net.targets, t)
                    : BruteLdOneToMany(net.tt, q, net.targets, t);
            bad = ValidateKnn(*got, brute, k);
          }
        } else {
          bad = CheckSetQuery(net, net.targets, type, q, t, k);
        }
        if (bad) {
          ADD_FAILURE() << ShrinkSetCase(net, seed, type, q, t, k,
                                         net.targets, *bad);
          ++failures;
        }
      }
    }
    if (failures >= kMaxReportedFailures) {
      GTEST_FAIL() << "stopping after " << failures << " failures";
    }
  }
}

// The naive Code-2 kNN plans answer through a different physical path
// (knn_naive table); differential-check them too so both plans stay honest.
TEST(DifferentialTest, NaiveKnnPlansMatchOracles) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Network net = MakeNetwork(seed);
    auto db = MakeDb(net.index, net.targets, kMaxK);
    ASSERT_TRUE(db->AddPaperKnnTables("t", net.index).ok());
    Rng rng(seed * 0x2545F4914F6CDD1DULL + 3);
    for (int trial = 0; trial < 6; ++trial) {
      const StopId q = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      const EventTime t = RandomTime(&rng, net);
      const auto k = static_cast<uint32_t>(rng.NextInRange(1, kMaxK));
      const auto ea_brute = BruteEaOneToMany(net.tt, q, net.targets, t);
      const auto ld_brute = BruteLdOneToMany(net.tt, q, net.targets, t);
      const auto ea = db->EaKnnNaive("t", q, t, k);
      ASSERT_TRUE(ea.ok());
      if (auto bad = ValidateKnn(*ea, ea_brute, k)) {
        ADD_FAILURE() << "seed=" << seed << " query=EA-kNN-naive q=" << q
                      << " t=" << t << " k=" << k << " -- " << *bad;
      }
      const auto ld = db->LdKnnNaive("t", q, t, k);
      ASSERT_TRUE(ld.ok());
      if (auto bad = ValidateKnn(*ld, ld_brute, k)) {
        ADD_FAILURE() << "seed=" << seed << " query=LD-kNN-naive q=" << q
                      << " t=" << t << " k=" << k << " -- " << *bad;
      }
    }
  }
}

// The facade's compiled VM programs vs. the paper's literal SQL run by
// the SQL interpreter on the same database, for all seven query types.
// The two executors share only the storage engine — plan shape, join
// strategy, scratch memory, aggregation and top-k all differ — so
// bit-for-bit agreement here plus the oracle coverage above pins the
// compiled path end to end. Set queries skip q ∈ T: the literal SQL has
// no "stay put" row. The vm_steps counter proves the facade half really
// ran on the VM.
TEST(DifferentialTest, VmMatchesInterpreterPath) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Network net = MakeNetwork(seed);
    auto db = MakeDb(net.index, net.targets, kMaxK);
    ASSERT_TRUE(db->AddPaperKnnTables("t", net.index).ok());
    SqlOracle sql(db.get());
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101);
    const EventTime lo = net.tt.min_time();
    const EventTime hi = net.tt.max_time();
    const uint64_t steps_before =
        db->metrics()->Snapshot().counters.at("exec.vm_steps");
    for (int trial = 0; trial < 8; ++trial) {
      StopId s = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      StopId g = static_cast<StopId>(rng.NextBelow(net.tt.num_stops()));
      if (g == s) g = (g + 1) % net.tt.num_stops();
      const EventTime t = RandomTime(&rng, net);
      const auto t_end = std::max(
          t, TSec(rng.NextInRange(lo.raw_seconds(), hi.raw_seconds())));
      const auto k = static_cast<uint32_t>(rng.NextInRange(1, kMaxK));

      const auto ea_v = db->EarliestArrival(s, g, t);
      const auto ea_i = sql.EarliestArrival(s, g, t);
      ASSERT_TRUE(ea_v.ok() && ea_i.ok());
      EXPECT_EQ(*ea_v, *ea_i) << "EA seed=" << seed << " s=" << s
                              << " g=" << g << " t=" << t;
      const auto ld_v = db->LatestDeparture(s, g, t_end);
      const auto ld_i = sql.LatestDeparture(s, g, t_end);
      ASSERT_TRUE(ld_v.ok() && ld_i.ok());
      EXPECT_EQ(*ld_v, *ld_i) << "LD seed=" << seed << " s=" << s
                              << " g=" << g << " t_end=" << t_end;
      const auto sd_v = db->ShortestDuration(s, g, t, t_end);
      const auto sd_i = sql.ShortestDuration(s, g, t, t_end);
      ASSERT_TRUE(sd_v.ok() && sd_i.ok());
      EXPECT_EQ(*sd_v, *sd_i) << "SD seed=" << seed << " s=" << s
                              << " g=" << g << " t=" << t
                              << " t_end=" << t_end;

      if (std::find(net.targets.begin(), net.targets.end(), s) !=
          net.targets.end()) {
        continue;
      }
      const auto eaknn_v = db->EaKnn("t", s, t, k);
      const auto eaknn_i = sql.EaKnn("t", s, t, k);
      ASSERT_TRUE(eaknn_v.ok() && eaknn_i.ok());
      EXPECT_EQ(*eaknn_v, *eaknn_i) << "EA-kNN seed=" << seed << " q=" << s
                                    << " t=" << t << " k=" << k;
      const auto ldknn_v = db->LdKnn("t", s, t, k);
      const auto ldknn_i = sql.LdKnn("t", s, t, k);
      ASSERT_TRUE(ldknn_v.ok() && ldknn_i.ok());
      EXPECT_EQ(*ldknn_v, *ldknn_i) << "LD-kNN seed=" << seed << " q=" << s
                                    << " t=" << t << " k=" << k;
      const auto eaotm_v = db->EaOneToMany("t", s, t);
      const auto eaotm_i = sql.EaOneToMany("t", s, t);
      ASSERT_TRUE(eaotm_v.ok() && eaotm_i.ok());
      EXPECT_EQ(*eaotm_v, *eaotm_i) << "EA-OTM seed=" << seed << " q=" << s
                                    << " t=" << t;
      const auto ldotm_v = db->LdOneToMany("t", s, t);
      const auto ldotm_i = sql.LdOneToMany("t", s, t);
      ASSERT_TRUE(ldotm_v.ok() && ldotm_i.ok());
      EXPECT_EQ(*ldotm_v, *ldotm_i) << "LD-OTM seed=" << seed << " q=" << s
                                    << " t=" << t;
    }
    EXPECT_GT(db->metrics()->Snapshot().counters.at("exec.vm_steps"),
              steps_before)
        << "facade queries did not execute on the VM";
  }
}

}  // namespace
}  // namespace ptldb
