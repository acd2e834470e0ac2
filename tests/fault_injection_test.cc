#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "common/rng.h"
#include "ptldb/ptldb.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

#include "test_time.h"

namespace ptldb {
namespace {

// Soak harness for the fault-injecting storage device: run every query
// type under injected transient errors, sticky bad pages, and bit-flip
// corruption, and hold one invariant — each answer either matches the
// CSA/brute-force ground truth or comes back as a non-OK Status. Crashing
// or silently returning a wrong journey fails the suite.

struct GroundTruth {
  Timetable tt;
  std::vector<StopId> targets;
};

// A kNN answer is valid if its times match the brute-force list position
// by position, its stops are distinct, and each stop's reported time is
// that stop's true time (ties at the k-th position may be broken either
// way; see ptldb_test.cc).
void CheckKnn(const std::vector<StopTimeResult>& got,
              const std::vector<StopTimeResult>& brute_full, uint32_t k,
              const char* what, uint64_t seed) {
  std::map<StopId, EventTime> truth;
  for (const auto& r : brute_full) truth.emplace(r.stop, r.time);
  const size_t expected = std::min<size_t>(k, brute_full.size());
  ASSERT_EQ(got.size(), expected) << what << " seed " << seed;
  std::set<StopId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].time, brute_full[i].time)
        << what << " seed " << seed << " position " << i;
    ASSERT_TRUE(seen.insert(got[i].stop).second)
        << what << " seed " << seed << " duplicate stop";
    const auto it = truth.find(got[i].stop);
    ASSERT_NE(it, truth.end()) << what << " seed " << seed;
    ASSERT_EQ(it->second, got[i].time) << what << " seed " << seed;
  }
}

// One fault profile per seed, cycling through three stress shapes:
// mostly-transient, corruption-heavy, and everything-at-once.
FaultPolicy PolicyForSeed(uint64_t seed) {
  FaultPolicy p;
  p.seed = seed * 7919 + 1;
  switch (seed % 3) {
    case 0:  // Flaky cable: reads fail transiently but data is sound.
      p.transient_error_prob = 0.05;
      break;
    case 1:  // Decaying media: bit flips, some of them sticky.
      p.corrupt_prob = 0.02;
      p.sticky_corruption = (seed % 2) == 1;
      break;
    default:  // Dying disk: everything at once, plus sticky bad sectors.
      p.transient_error_prob = 0.03;
      p.sticky_error_prob = 0.002;
      p.corrupt_prob = 0.01;
      break;
  }
  return p;
}

class FaultSoakTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions o;
    o.num_stops = 60;
    o.target_connections = 3000;
    o.min_route_len = 4;
    o.max_route_len = 8;
    o.seed = 424242;
    auto tt = GenerateNetwork(o);
    ASSERT_TRUE(tt.ok());
    truth_ = new GroundTruth();
    truth_->tt = std::move(*tt);
    Rng rng(12345);
    truth_->targets = rng.SampleDistinct(truth_->tt.num_stops(), 8);
  }

  static void TearDownTestSuite() {
    delete truth_;
    truth_ = nullptr;
  }

  static GroundTruth* truth_;
};

GroundTruth* FaultSoakTest::truth_ = nullptr;

TEST_F(FaultSoakTest, NoCrashesNoWrongAnswersAcrossSeeds) {
  const Timetable& tt = truth_->tt;
  const std::vector<StopId>& targets = truth_->targets;
  auto index = BuildTtlIndex(tt);
  ASSERT_TRUE(index.ok());
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  auto db = PtldbDatabase::Build(*index, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->AddTargetSet("T", *index, targets, /*kmax=*/4).ok());
  ASSERT_TRUE((*db)->AddPaperKnnTables("T", *index).ok());
  StorageDevice* device = (*db)->engine()->device();
  BufferPool* pool = (*db)->engine()->buffer_pool();

  uint64_t total_faults = 0;
  uint64_t ok_answers = 0;
  uint64_t failed_answers = 0;

  constexpr uint64_t kNumSeeds = 24;
  for (uint64_t seed = 0; seed < kNumSeeds; ++seed) {
    device->set_fault_policy(PolicyForSeed(seed));
    pool->ClearQuarantine();
    Rng rng(seed * 31 + 17);
    for (int trial = 0; trial < 12; ++trial) {
      // Cold caches each trial so reads actually hit the faulty device.
      ASSERT_TRUE((*db)->DropCaches().ok());
      StopId q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
      while (std::find(targets.begin(), targets.end(), q) != targets.end()) {
        q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
      }
      auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
      if (g == q) g = (g + 1) % tt.num_stops();
      const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                          tt.max_time().raw_seconds()));
      const auto t_end = TSec(
          rng.NextInRange(t.raw_seconds(), tt.max_time().raw_seconds()));

      const auto check_scalar = [&](const auto& got, auto want,
                                    const char* what) {
        if (got.ok()) {
          ASSERT_EQ(*got, want) << what << " seed " << seed;
          ++ok_answers;
        } else {
          ++failed_answers;
        }
      };
      // 1-3: the v2v triple against CSA scans.
      check_scalar((*db)->EarliestArrival(q, g, t),
                   EarliestArrival(tt, q, g, t), "EA");
      check_scalar((*db)->LatestDeparture(q, g, t_end),
                   LatestDeparture(tt, q, g, t_end), "LD");
      check_scalar((*db)->ShortestDuration(q, g, t, t_end),
                   ShortestDuration(tt, q, g, t, t_end), "SD");

      const auto ea_full = BruteEaOneToMany(tt, q, targets, t);
      const auto ld_full = BruteLdOneToMany(tt, q, targets, t_end);
      const uint32_t k = 1 + static_cast<uint32_t>(rng.NextBelow(4));

      // 4-5: kNN (optimized path, may degrade to the v2v fallback).
      if (const auto r = (*db)->EaKnn("T", q, t, k); r.ok()) {
        CheckKnn(*r, ea_full, k, "EA-kNN", seed);
        ++ok_answers;
      } else {
        ++failed_answers;
      }
      if (const auto r = (*db)->LdKnn("T", q, t_end, k); r.ok()) {
        CheckKnn(*r, ld_full, k, "LD-kNN", seed);
        ++ok_answers;
      } else {
        ++failed_answers;
      }

      // 6-7: the Code 2 naive baselines (no fallback: a fault is an error).
      if (const auto r = (*db)->EaKnnNaive("T", q, t, k); r.ok()) {
        CheckKnn(*r, ea_full, k, "EA-kNN-naive", seed);
        ++ok_answers;
      } else {
        ++failed_answers;
      }
      if (const auto r = (*db)->LdKnnNaive("T", q, t_end, k); r.ok()) {
        CheckKnn(*r, ld_full, k, "LD-kNN-naive", seed);
        ++ok_answers;
      } else {
        ++failed_answers;
      }

      // 8-9: one-to-many must match brute force exactly when it answers.
      if (const auto r = (*db)->EaOneToMany("T", q, t); r.ok()) {
        ASSERT_EQ(r->size(), ea_full.size()) << "EA-OTM seed " << seed;
        for (size_t i = 0; i < ea_full.size(); ++i) {
          ASSERT_EQ((*r)[i], ea_full[i]) << "EA-OTM seed " << seed;
        }
        ++ok_answers;
      } else {
        ++failed_answers;
      }
      if (const auto r = (*db)->LdOneToMany("T", q, t_end); r.ok()) {
        ASSERT_EQ(r->size(), ld_full.size()) << "LD-OTM seed " << seed;
        for (size_t i = 0; i < ld_full.size(); ++i) {
          ASSERT_EQ((*r)[i], ld_full[i]) << "LD-OTM seed " << seed;
        }
        ++ok_answers;
      } else {
        ++failed_answers;
      }
    }
    total_faults += device->read_errors() + device->corruptions_injected();
  }

  // The soak is only meaningful if faults actually fired and the system
  // survived a healthy mix of successes and failures.
  EXPECT_GT(total_faults, 100u);
  EXPECT_GT(ok_answers, 0u);
  EXPECT_GT(failed_answers, 0u);
  const auto& stats = (*db)->query_stats();
  EXPECT_EQ(stats.queries, kNumSeeds * 12 * 9);
  // Degradation should have rescued at least one kNN/OTM query.
  EXPECT_GT(stats.degraded, 0u);

  // With faults disabled the same database answers everything exactly.
  device->set_fault_policy(FaultPolicy{});
  pool->ClearQuarantine();
  ASSERT_TRUE((*db)->DropCaches().ok());
  Rng rng(999);
  for (int trial = 0; trial < 10; ++trial) {
    StopId q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    while (std::find(targets.begin(), targets.end(), q) != targets.end()) {
      q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    }
    auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    if (g == q) g = (g + 1) % tt.num_stops();
    const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                        tt.max_time().raw_seconds()));
    const auto ea = (*db)->EarliestArrival(q, g, t);
    ASSERT_TRUE(ea.ok()) << ea.status().ToString();
    EXPECT_EQ(*ea, EarliestArrival(tt, q, g, t));
    const auto otm = (*db)->EaOneToMany("T", q, t);
    ASSERT_TRUE(otm.ok()) << otm.status().ToString();
    const auto brute = BruteEaOneToMany(tt, q, targets, t);
    ASSERT_EQ(otm->size(), brute.size());
    for (size_t i = 0; i < brute.size(); ++i) EXPECT_EQ((*otm)[i], brute[i]);
  }
}

// The Code 2 naive program walks knn_naive with a table cursor. A fault
// during the walk must end the query with the fault — never with the
// rows read so far as a short OK answer — and once the device heals the
// same calls must answer exactly.
TEST_F(FaultSoakTest, NaiveKnnFaultIsAnErrorNotAShortAnswer) {
  const Timetable& tt = truth_->tt;
  const std::vector<StopId>& targets = truth_->targets;
  auto index = BuildTtlIndex(tt);
  ASSERT_TRUE(index.ok());
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  auto db = PtldbDatabase::Build(*index, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->AddTargetSet("T", *index, targets, /*kmax=*/4).ok());
  ASSERT_TRUE((*db)->AddPaperKnnTables("T", *index).ok());
  StorageDevice* device = (*db)->engine()->device();

  // A query stop outside T from which some target is reachable.
  const EventTime t = tt.min_time();
  const EventTime t_end = tt.max_time();
  StopId q = 0;
  while (std::find(targets.begin(), targets.end(), q) != targets.end() ||
         BruteEaOneToMany(tt, q, targets, t).empty() ||
         BruteLdOneToMany(tt, q, targets, t_end).empty()) {
    ++q;
    ASSERT_LT(q, tt.num_stops());
  }
  const uint32_t k = 3;

  FaultPolicy failing;
  failing.seed = 9;
  failing.transient_error_prob = 1.0;
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE((*db)->DropCaches().ok());
    if (round == 1) {
      // Cache q's lout row first so the fault hits the knn_naive walk
      // itself rather than the label load in front of it.
      ASSERT_TRUE((*db)->EarliestArrival(q, targets[0], t).ok());
    }
    device->set_fault_policy(failing);
    const auto ea = (*db)->EaKnnNaive("T", q, t, k);
    ASSERT_FALSE(ea.ok()) << "round " << round;
    EXPECT_EQ(ea.status().code(), Status::Code::kIoError);
    const auto ld = (*db)->LdKnnNaive("T", q, t_end, k);
    ASSERT_FALSE(ld.ok()) << "round " << round;
    EXPECT_EQ(ld.status().code(), Status::Code::kIoError);
    device->set_fault_policy(FaultPolicy{});
  }

  ASSERT_TRUE((*db)->DropCaches().ok());
  const auto ea = (*db)->EaKnnNaive("T", q, t, k);
  ASSERT_TRUE(ea.ok()) << ea.status().ToString();
  CheckKnn(*ea, BruteEaOneToMany(tt, q, targets, t), k, "EA-kNN-naive", 0);
  const auto ld = (*db)->LdKnnNaive("T", q, t_end, k);
  ASSERT_TRUE(ld.ok()) << ld.status().ToString();
  CheckKnn(*ld, BruteLdOneToMany(tt, q, targets, t_end), k, "LD-kNN-naive",
           0);
}

// Sticky corruption must not poison the process: after the device heals,
// ClearQuarantine + DropCaches restores exact answers.
TEST_F(FaultSoakTest, RecoversAfterDeviceHeals) {
  const Timetable& tt = truth_->tt;
  auto index = BuildTtlIndex(tt);
  ASSERT_TRUE(index.ok());
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  auto db = PtldbDatabase::Build(*index, options);
  ASSERT_TRUE(db.ok());
  StorageDevice* device = (*db)->engine()->device();

  FaultPolicy nasty;
  nasty.seed = 77;
  nasty.corrupt_prob = 0.2;
  nasty.sticky_corruption = true;
  nasty.sticky_error_prob = 0.05;
  device->set_fault_policy(nasty);
  Rng rng(4);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE((*db)->DropCaches().ok());
    const auto s = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    if (g == s) g = (g + 1) % tt.num_stops();
    const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                        tt.max_time().raw_seconds()));
    const auto ea = (*db)->EarliestArrival(s, g, t);
    if (ea.ok()) EXPECT_EQ(*ea, EarliestArrival(tt, s, g, t));
  }

  device->set_fault_policy(FaultPolicy{});  // Heal (clears sticky state).
  (*db)->engine()->buffer_pool()->ClearQuarantine();
  ASSERT_TRUE((*db)->DropCaches().ok());
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    if (g == s) g = (g + 1) % tt.num_stops();
    const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                        tt.max_time().raw_seconds()));
    const auto ea = (*db)->EarliestArrival(s, g, t);
    ASSERT_TRUE(ea.ok()) << ea.status().ToString();
    EXPECT_EQ(*ea, EarliestArrival(tt, s, g, t));
  }
}

}  // namespace
}  // namespace ptldb
