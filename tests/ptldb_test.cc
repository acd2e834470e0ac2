#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <set>

#include "baseline/brute.h"
#include "baseline/csa.h"
#include "common/query_context.h"
#include "common/rng.h"
#include "ptldb/ptldb.h"
#include "ptldb/service_calendar.h"
#include "ptldb/tables.h"
#include "timetable/example_graph.h"
#include "timetable/generator.h"
#include "common/csv.h"
#include "ttl/builder.h"
#include "ttl/query.h"

#include "test_time.h"

namespace ptldb {
namespace {

Timetable SmallCity(uint64_t seed, uint32_t stops = 90,
                    uint64_t connections = 5000) {
  GeneratorOptions o;
  o.num_stops = stops;
  o.target_connections = connections;
  o.min_route_len = 4;
  o.max_route_len = 9;
  o.seed = seed;
  auto tt = GenerateNetwork(o);
  EXPECT_TRUE(tt.ok());
  return std::move(tt).value();
}

TtlIndex BuildIndex(const Timetable& tt, TtlBuildOptions options = {}) {
  auto index = BuildTtlIndex(tt, options);
  EXPECT_TRUE(index.ok());
  return std::move(index).value();
}

std::unique_ptr<PtldbDatabase> BuildDb(const TtlIndex& index) {
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  auto db = PtldbDatabase::Build(index, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

// kNN answers may legitimately differ from the brute-force list on stops
// whose times tie at the k-th position ("ties broken arbitrarily" in the
// paper's table construction). Validate: same times position-by-position,
// distinct stops, and every returned stop's true time equals the reported
// time.
void ExpectKnnValid(const std::vector<StopTimeResult>& got,
                    const std::vector<StopTimeResult>& brute_full,
                    uint32_t k, const char* what) {
  std::map<StopId, EventTime> truth;
  for (const auto& r : brute_full) truth.emplace(r.stop, r.time);
  const size_t expected =
      std::min<size_t>(k, brute_full.size());
  ASSERT_EQ(got.size(), expected) << what;
  std::set<StopId> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].time, brute_full[i].time)
        << what << " time mismatch at position " << i;
    EXPECT_TRUE(seen.insert(got[i].stop).second)
        << what << " duplicate stop " << got[i].stop;
    const auto it = truth.find(got[i].stop);
    ASSERT_NE(it, truth.end())
        << what << " returned stop " << got[i].stop << " not reachable";
    EXPECT_EQ(it->second, got[i].time)
        << what << " stop " << got[i].stop << " has wrong time";
  }
}

// ---------- Worked examples from the paper ----------

class PtldbExampleTest : public testing::Test {
 protected:
  PtldbExampleTest() : tt_(MakeExampleTimetable()) {
    TtlBuildOptions options;
    options.custom_order = ExampleVertexOrder();
    index_ = BuildIndex(tt_, options);
    db_ = BuildDb(index_);
    EXPECT_TRUE(db_->AddTargetSet("t46", index_, {4, 6}, /*kmax=*/2).ok());
    EXPECT_TRUE(db_->AddPaperKnnTables("t46", index_).ok());
  }

  Timetable tt_;
  TtlIndex index_;
  std::unique_ptr<PtldbDatabase> db_;
};

// A deadline is a per-request contract: ScopedQueryContext restarts the
// clock-read stride, so a request whose deadline has already passed
// reads the clock on its first checkpoint, whatever count an earlier
// request on the thread left behind. Each warm Figure-1 query makes far
// fewer than kCheckpointStride checkpoints, so a stride carried over from
// an earlier request would let most phases answer OK.
TEST_F(PtldbExampleTest, ExpiredDeadlineStopsEveryQueryAtEveryStridePhase) {
  const EventTime t = TSec(28800);
  const EventTime t_end = TSec(43200);
  const std::vector<std::pair<const char*, std::function<Status()>>> queries =
      {{"v2v_ea", [&] { return db_->EarliestArrival(5, 6, t).status(); }},
       {"v2v_ld", [&] { return db_->LatestDeparture(5, 6, t_end).status(); }},
       {"v2v_sd",
        [&] { return db_->ShortestDuration(5, 6, t, t_end).status(); }},
       {"ea_knn", [&] { return db_->EaKnn("t46", 5, t, 2).status(); }},
       {"ld_knn", [&] { return db_->LdKnn("t46", 5, t_end, 2).status(); }},
       {"ea_otm", [&] { return db_->EaOneToMany("t46", 5, t).status(); }},
       {"ld_otm", [&] { return db_->LdOneToMany("t46", 5, t_end).status(); }}};
  for (const auto& [name, run] : queries) {
    ASSERT_TRUE(run().ok()) << name;  // Warm: no page misses below.
  }
  const QueryContext future = QueryContext::WithTimeout(std::chrono::hours(1));
  const QueryContext expired =
      QueryContext::WithDeadline(QueryContext::Clock::now());
  for (uint32_t phase = 0; phase < kCheckpointStride; ++phase) {
    for (const auto& [name, run] : queries) {
      {
        ScopedQueryContext earlier(&future);
        for (uint32_t i = 0; i < phase; ++i) {
          ASSERT_TRUE(CheckQueryCheckpoint().ok());
        }
      }
      ScopedQueryContext scope(&expired);
      EXPECT_EQ(run().code(), Status::Code::kDeadlineExceeded)
          << name << " at stride phase " << phase;
    }
  }
}

TEST_F(PtldbExampleTest, V2vMatchesPaper) {
  // "the answer to the EA(1, 1, 324) query is 324".
  EXPECT_EQ(*db_->EarliestArrival(1, 1, TSec(32400)), TSec(32400));
  EXPECT_EQ(*db_->EarliestArrival(5, 6, TSec(28800)), TSec(43200));
  EXPECT_EQ(*db_->LatestDeparture(5, 6, TSec(43200)), TSec(28800));
  EXPECT_EQ(*db_->ShortestDuration(5, 0, TSec(0), TSec(86400)), DSec(7200));
  EXPECT_EQ(*db_->EarliestArrival(5, 0, TSec(28801)), EventTime::Infinity());
  EXPECT_EQ(*db_->LatestDeparture(6, 5, TSec(43199)),
            EventTime::NegInfinity());
}

TEST_F(PtldbExampleTest, NaiveTableMatchesTable4) {
  // Table 4 of the paper: ea_knn_naive for T={4,6} and k=1 has rows
  // (0,360)->({4},{396}), (2,396)->({6},{432}), (4,396)->({4},{396}),
  // (6,432)->({6},{432}). With kmax=2 the (0,360) row also keeps (6,432).
  const EngineTable* naive = db_->engine()->FindTable(NaiveKnnTableName("t46"));
  ASSERT_NE(naive, nullptr);
  BufferPool* pool = db_->engine()->buffer_pool();

  const auto row0 = naive->Get(MakeCompositeKey(0, 36000), pool);
  ASSERT_TRUE(row0->has_value());
  EXPECT_EQ((**row0)[2].AsArray(), (std::vector<int32_t>{4, 6}));
  EXPECT_EQ((**row0)[3].AsArray(), (std::vector<int32_t>{39600, 43200}));

  const auto row2 = naive->Get(MakeCompositeKey(2, 39600), pool);
  ASSERT_TRUE(row2->has_value());
  EXPECT_EQ((**row2)[2].AsArray(), (std::vector<int32_t>{6}));
  EXPECT_EQ((**row2)[3].AsArray(), (std::vector<int32_t>{43200}));

  const auto row4 = naive->Get(MakeCompositeKey(4, 39600), pool);
  ASSERT_TRUE(row4->has_value());
  EXPECT_EQ((**row4)[2].AsArray(), (std::vector<int32_t>{4}));

  const auto row6 = naive->Get(MakeCompositeKey(6, 43200), pool);
  ASSERT_TRUE(row6->has_value());
  EXPECT_EQ((**row6)[2].AsArray(), (std::vector<int32_t>{6}));

  EXPECT_EQ(naive->num_rows(), 4u);
}

TEST_F(PtldbExampleTest, EaKnnMatchesPaperExample) {
  // "the EA-kNN(0, {4,6}, 360, 1) will have the correct answer (4, 396)".
  const auto naive = db_->EaKnnNaive("t46", 0, TSec(36000), 1);
  ASSERT_TRUE(naive.ok());
  ASSERT_EQ(naive->size(), 1u);
  EXPECT_EQ((*naive)[0].stop, 4u);
  EXPECT_EQ((*naive)[0].time, TSec(39600));

  const auto optimized = db_->EaKnn("t46", 0, TSec(36000), 1);
  ASSERT_TRUE(optimized.ok());
  ASSERT_EQ(optimized->size(), 1u);
  EXPECT_EQ((*optimized)[0].stop, 4u);
  EXPECT_EQ((*optimized)[0].time, TSec(39600));
}

TEST_F(PtldbExampleTest, EaOtmReturnsAllTargets) {
  const auto rows = db_->EaOneToMany("t46", 0, TSec(36000));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (StopTimeResult{4, TSec(39600)}));
  EXPECT_EQ((*rows)[1], (StopTimeResult{6, TSec(43200)}));
}

TEST_F(PtldbExampleTest, LdQueriesOnExample) {
  // Reach {4,6} by end of day from stop 5 (departs 28800 on trip 1).
  const auto knn = db_->LdKnn("t46", 5, TSec(43200), 2);
  ASSERT_TRUE(knn.ok());
  const auto brute = BruteLdOneToMany(tt_, 5, {4, 6}, TSec(43200));
  ExpectKnnValid(*knn, brute, 2, "LD-kNN example");

  const auto otm = db_->LdOneToMany("t46", 5, TSec(43200));
  ASSERT_TRUE(otm.ok());
  ASSERT_EQ(otm->size(), brute.size());
  for (size_t i = 0; i < otm->size(); ++i) EXPECT_EQ((*otm)[i], brute[i]);
}

// ---------- The paper's kNN tables are built on request ----------

// A registered set owns exactly two tables, the EA and LD bucket tables
// every kNN and one-to-many query reads. AddPaperKnnTables adds the
// paper's three kNN tables beside them.
TEST(PtldbNaiveTableTest, RegistrationBuildsOnlyTheOtmTables) {
  const Timetable tt = SmallCity(46);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(14);
  ASSERT_TRUE(db->AddTargetSet("T", index,
                               rng.SampleDistinct(tt.num_stops(), 6), 4)
                  .ok());
  const auto set_tables = [&] {
    std::set<std::string> out;
    for (const std::string& name : db->engine()->table_names()) {
      if (name.size() > 2 && name.compare(name.size() - 2, 2, "_T") == 0) {
        out.insert(name);
      }
    }
    return out;
  };
  EXPECT_EQ(set_tables(), (std::set<std::string>{"otm_ea_T", "otm_ld_T"}));
  ASSERT_TRUE(db->AddPaperKnnTables("T", index).ok());
  EXPECT_EQ(set_tables(),
            (std::set<std::string>{"otm_ea_T", "otm_ld_T", "knn_ea_T",
                                   "knn_ld_T", "knn_naive_T"}));
}

// Registration builds only the two otm_* tables. Until
// AddPaperKnnTables runs, the naive baselines fail with kNotFound naming
// the call — never an OK empty answer.
TEST(PtldbNaiveTableTest, NaiveKnnBeforeAddPaperKnnTablesIsNotFound) {
  const Timetable tt = SmallCity(47);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(15);
  ASSERT_TRUE(db->AddTargetSet("T", index,
                               rng.SampleDistinct(tt.num_stops(), 6), 4)
                  .ok());
  EXPECT_EQ(db->engine()->FindTable(NaiveKnnTableName("T")), nullptr);
  for (const auto& r : {db->EaKnnNaive("T", 0, tt.min_time(), 2),
                        db->LdKnnNaive("T", 0, tt.max_time(), 2)}) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
    EXPECT_NE(r.status().message().find("AddPaperKnnTables"),
              std::string::npos)
        << r.status().ToString();
  }
  ASSERT_TRUE(db->AddPaperKnnTables("T", index).ok());
  EXPECT_NE(db->engine()->FindTable(NaiveKnnTableName("T")), nullptr);
  EXPECT_TRUE(db->EaKnnNaive("T", 0, tt.min_time(), 2).ok());
  EXPECT_TRUE(db->LdKnnNaive("T", 0, tt.max_time(), 2).ok());
}

TEST(PtldbNaiveTableTest, RejectsUnknownSetAndSecondBuild) {
  const Timetable tt = SmallCity(48);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(16);
  ASSERT_TRUE(db->AddTargetSet("T", index,
                               rng.SampleDistinct(tt.num_stops(), 6), 4)
                  .ok());
  EXPECT_EQ(db->AddPaperKnnTables("nope", index).code(),
            Status::Code::kNotFound);
  const uint64_t before = db->size_bytes();
  ASSERT_TRUE(db->AddPaperKnnTables("T", index).ok());
  const uint64_t with_naive = db->size_bytes();
  EXPECT_GT(with_naive, before);
  EXPECT_EQ(db->AddPaperKnnTables("T", index).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(db->size_bytes(), with_naive);
}

TEST_F(PtldbExampleTest, ValidatesTargetSetUsage) {
  EXPECT_FALSE(db_->EaKnn("nope", 0, TSec(0), 1).ok());
  EXPECT_FALSE(db_->EaKnn("t46", 0, TSec(0), 3).ok());  // k > kmax.
  EXPECT_FALSE(db_->EaKnn("t46", 0, TSec(0), 0).ok());
  EXPECT_FALSE(db_->EaOneToMany("nope", 0, TSec(0)).ok());
  EXPECT_FALSE(db_->AddTargetSet("t46", index_, {1}, 2).ok());  // Duplicate.
}

// ---------- Randomized integration sweeps ----------

struct SweepCase {
  uint64_t seed;
  double density;
  uint32_t kmax;
};

class PtldbSweepTest : public testing::TestWithParam<SweepCase> {};

TEST_P(PtldbSweepTest, AllQueriesMatchGroundTruth) {
  const SweepCase param = GetParam();
  const Timetable tt = SmallCity(param.seed);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);

  Rng rng(param.seed * 131 + 7);
  const auto num_targets = std::max<uint32_t>(
      2, static_cast<uint32_t>(param.density * tt.num_stops()));
  std::vector<StopId> targets = rng.SampleDistinct(tt.num_stops(), num_targets);
  ASSERT_TRUE(db->AddTargetSet("T", index, targets, param.kmax).ok());
  ASSERT_TRUE(db->AddPaperKnnTables("T", index).ok());

  const EventTime lo = tt.min_time();
  const EventTime hi = tt.max_time();
  for (int trial = 0; trial < 40; ++trial) {
    // Query stops outside the target set (self-queries have label-defined
    // semantics, see README).
    StopId q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    while (std::find(targets.begin(), targets.end(), q) != targets.end()) {
      q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    }
    const auto t =
        TSec(rng.NextInRange(lo.raw_seconds(), hi.raw_seconds()));

    // v2v against CSA.
    {
      auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
      if (g == q) g = (g + 1) % tt.num_stops();
      EXPECT_EQ(*db->EarliestArrival(q, g, t), EarliestArrival(tt, q, g, t));
      EXPECT_EQ(*db->LatestDeparture(q, g, t), LatestDeparture(tt, q, g, t));
      const auto t_end =
          TSec(rng.NextInRange(t.raw_seconds(), hi.raw_seconds()));
      EXPECT_EQ(*db->ShortestDuration(q, g, t, t_end),
                ShortestDuration(tt, q, g, t, t_end));
    }

    const auto ea_full = BruteEaOneToMany(tt, q, targets, t);
    const auto ld_full = BruteLdOneToMany(tt, q, targets, t);

    for (uint32_t k = 1; k <= param.kmax; k *= 2) {
      const auto ea = db->EaKnn("T", q, t, k);
      ASSERT_TRUE(ea.ok());
      ExpectKnnValid(*ea, ea_full, k, "EA-kNN");
      const auto ea_naive = db->EaKnnNaive("T", q, t, k);
      ASSERT_TRUE(ea_naive.ok());
      ExpectKnnValid(*ea_naive, ea_full, k, "EA-kNN-naive");
      const auto ld = db->LdKnn("T", q, t, k);
      ASSERT_TRUE(ld.ok());
      ExpectKnnValid(*ld, ld_full, k, "LD-kNN");
      const auto ld_naive = db->LdKnnNaive("T", q, t, k);
      ASSERT_TRUE(ld_naive.ok());
      ExpectKnnValid(*ld_naive, ld_full, k, "LD-kNN-naive");
      // EA: both plans order ties by stop id, so they agree exactly. LD:
      // the naive table keeps each row's k earliest arrivals, so at the
      // k-th place it may pick another stop with the same departure time.
      EXPECT_EQ(*ea_naive, *ea);
      ASSERT_EQ(ld_naive->size(), ld->size());
      for (size_t i = 0; i < ld->size(); ++i) {
        EXPECT_EQ((*ld_naive)[i].time, (*ld)[i].time);
      }
    }

    // One-to-many must match exactly (no tie truncation).
    const auto ea_otm = db->EaOneToMany("T", q, t);
    ASSERT_TRUE(ea_otm.ok());
    ASSERT_EQ(ea_otm->size(), ea_full.size());
    for (size_t i = 0; i < ea_full.size(); ++i) {
      EXPECT_EQ((*ea_otm)[i], ea_full[i]) << "EA-OTM row " << i;
    }
    const auto ld_otm = db->LdOneToMany("T", q, t);
    ASSERT_TRUE(ld_otm.ok());
    ASSERT_EQ(ld_otm->size(), ld_full.size());
    for (size_t i = 0; i < ld_full.size(); ++i) {
      EXPECT_EQ((*ld_otm)[i], ld_full[i]) << "LD-OTM row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PtldbSweepTest,
    testing::Values(SweepCase{1, 0.05, 4}, SweepCase{2, 0.10, 4},
                    SweepCase{3, 0.10, 16}, SweepCase{4, 0.30, 8},
                    SweepCase{5, 0.02, 2}, SweepCase{6, 0.50, 4}));

// Section 3.2.1: the hour is a tuning parameter; any bucket width must
// keep answers exact (only performance changes).
class PtldbBucketWidthTest : public testing::TestWithParam<int32_t> {};

TEST_P(PtldbBucketWidthTest, AnswersIndependentOfBucketWidth) {
  const Timetable tt = SmallCity(77);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(9);
  std::vector<StopId> targets = rng.SampleDistinct(tt.num_stops(), 10);
  ASSERT_TRUE(
      db->AddTargetSet("T", index, targets, 4, DSec(GetParam())).ok());
  for (int trial = 0; trial < 25; ++trial) {
    StopId q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    while (std::find(targets.begin(), targets.end(), q) != targets.end()) {
      q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    }
    const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                        tt.max_time().raw_seconds()));
    const auto ea = db->EaKnn("T", q, t, 4);
    ASSERT_TRUE(ea.ok());
    ExpectKnnValid(*ea, BruteEaOneToMany(tt, q, targets, t), 4, "EA bucket");
    const auto ld = db->LdKnn("T", q, t, 4);
    ASSERT_TRUE(ld.ok());
    ExpectKnnValid(*ld, BruteLdOneToMany(tt, q, targets, t), 4, "LD bucket");
    const auto otm = db->EaOneToMany("T", q, t);
    ASSERT_TRUE(otm.ok());
    const auto brute = BruteEaOneToMany(tt, q, targets, t);
    ASSERT_EQ(otm->size(), brute.size());
    for (size_t i = 0; i < brute.size(); ++i) EXPECT_EQ((*otm)[i], brute[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PtldbBucketWidthTest,
                         testing::Values(900, 1800, 3600, 7200, 14400));

// A stop that is never reached (only departures, never a hub target) has
// an empty lin row; queries against it must come back empty, not crash.
TEST(PtldbEdgeTest, UnreachableStopHasEmptyAnswers) {
  TimetableBuilder builder;
  const StopId x = builder.AddStop();
  const StopId y = builder.AddStop();
  const TripId trip = builder.AddTrip();
  builder.AddConnection(x, y, TSec(100), TSec(200), trip);
  auto tt = std::move(builder).Build();
  ASSERT_TRUE(tt.ok());
  const TtlIndex index = BuildIndex(*tt);
  auto db = BuildDb(index);
  EXPECT_EQ(*db->EarliestArrival(x, y, TSec(100)), TSec(200));
  EXPECT_EQ(*db->EarliestArrival(x, y, TSec(101)), EventTime::Infinity());
  EXPECT_EQ(*db->EarliestArrival(y, x, TSec(0)), EventTime::Infinity());
  EXPECT_EQ(*db->LatestDeparture(y, x, TSec(99999)),
            EventTime::NegInfinity());
  EXPECT_EQ(*db->ShortestDuration(y, x, TSec(0), TSec(99999)),
            Duration::Infinity());
  ASSERT_TRUE(db->AddTargetSet("T", index, {x}, 2).ok());
  const auto knn = db->EaKnn("T", y, TSec(0), 1);
  ASSERT_TRUE(knn.ok());
  EXPECT_TRUE(knn->empty());
  const auto otm = db->LdOneToMany("T", y, TSec(99999));
  ASSERT_TRUE(otm.ok());
  EXPECT_TRUE(otm->empty());
}

// Correctness must not depend on buffer-pool capacity: a pool of 8 pages
// forces constant eviction, yet answers stay identical.
TEST(PtldbEdgeTest, TinyBufferPoolStillCorrect) {
  const Timetable tt = SmallCity(66);
  const TtlIndex index = BuildIndex(tt);
  auto reference = BuildDb(index);
  PtldbOptions tiny;
  tiny.device = DeviceProfile::Ram();
  tiny.buffer_pool_pages = 8;
  auto constrained = PtldbDatabase::Build(index, tiny);
  ASSERT_TRUE(constrained.ok());
  Rng rng(33);
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    auto g = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    if (g == s) g = (g + 1) % tt.num_stops();
    const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                        tt.max_time().raw_seconds()));
    EXPECT_EQ(*(*constrained)->EarliestArrival(s, g, t),
              *reference->EarliestArrival(s, g, t));
    EXPECT_EQ(*(*constrained)->LatestDeparture(s, g, t),
              *reference->LatestDeparture(s, g, t));
  }
}

// ---------- Hour-bucket boundary off-by-ones ----------
//
// The condensed (hub, hour) tables carve label events into buckets with
// asymmetric edge rules (EA: td >= (hour+1)*bucket_seconds is condensed for
// `hour`; LD: ta strictly before hour*bucket_seconds — see tables.cc). The
// paper's example timetable has every event at an exact multiple of 3600,
// so with the default one-hour bucket every label lands exactly on a
// bucket edge — the configuration where an off-by-one in either rule
// flips answers. Brute-check every query type at every event time and its
// +-1 neighbours, from every stop.
TEST(PtldbBucketBoundaryTest, ExampleGraphEventsOnExactHourEdges) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions options;
  options.custom_order = ExampleVertexOrder();
  const TtlIndex index = BuildIndex(tt, options);
  auto db = BuildDb(index);
  const std::vector<StopId> targets = {4, 6};
  ASSERT_TRUE(db->AddTargetSet("T", index, targets, 2).ok());

  std::set<EventTime> event_times;
  for (const Connection& c : tt.connections()) {
    event_times.insert(c.dep);
    event_times.insert(c.arr);
  }
  for (const EventTime base : event_times) {
    ASSERT_EQ(base.raw_seconds() % kHourBucket.raw_seconds(), 0)
        << "example graph events must sit on exact hour edges";
    for (const EventTime t : {base - DSec(1), base, base + DSec(1)}) {
      for (StopId q = 0; q < tt.num_stops(); ++q) {
        const auto ea_full = BruteEaOneToMany(tt, q, targets, t);
        const auto ld_full = BruteLdOneToMany(tt, q, targets, t);
        const auto ea = db->EaKnn("T", q, t, 2);
        ASSERT_TRUE(ea.ok());
        ExpectKnnValid(*ea, ea_full, 2, "EA edge");
        const auto ld = db->LdKnn("T", q, t, 2);
        ASSERT_TRUE(ld.ok());
        ExpectKnnValid(*ld, ld_full, 2, "LD edge");
        const auto ea_otm = db->EaOneToMany("T", q, t);
        ASSERT_TRUE(ea_otm.ok());
        EXPECT_EQ(*ea_otm, ea_full) << "EA-OTM at t=" << t << " q=" << q;
        const auto ld_otm = db->LdOneToMany("T", q, t);
        ASSERT_TRUE(ld_otm.ok());
        EXPECT_EQ(*ld_otm, ld_full) << "LD-OTM at t=" << t << " q=" << q;
      }
    }
  }
}

// Query timestamps at exact multiples of bucket_seconds (and the seconds
// on either side) on a generated city: t / bucket_seconds changes value
// exactly at these points, so both bucket queries' starting hour and the
// LD feasibility filter are at their most fragile.
class PtldbBucketBoundaryWidthTest : public testing::TestWithParam<int32_t> {
};

TEST_P(PtldbBucketBoundaryWidthTest, QueriesOnExactBucketMultiplesMatchBrute) {
  const Duration bs = DSec(GetParam());
  const Timetable tt = SmallCity(123, /*stops=*/60, /*connections=*/3000);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(55);
  const std::vector<StopId> targets = rng.SampleDistinct(tt.num_stops(), 8);
  ASSERT_TRUE(db->AddTargetSet("T", index, targets, 4, bs).ok());

  for (EventTime edge = BucketStart(TimeBucket(tt.min_time(), bs), bs);
       edge <= tt.max_time() + bs; edge += bs) {
    for (const EventTime t : {edge - DSec(1), edge, edge + DSec(1)}) {
      for (int qi = 0; qi < 3; ++qi) {
        const StopId q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
        const auto ea_full = BruteEaOneToMany(tt, q, targets, t);
        const auto ld_full = BruteLdOneToMany(tt, q, targets, t);
        const auto ea = db->EaKnn("T", q, t, 4);
        ASSERT_TRUE(ea.ok());
        ExpectKnnValid(*ea, ea_full, 4, "EA bucket edge");
        const auto ld = db->LdKnn("T", q, t, 4);
        ASSERT_TRUE(ld.ok());
        ExpectKnnValid(*ld, ld_full, 4, "LD bucket edge");
        const auto otm = db->EaOneToMany("T", q, t);
        ASSERT_TRUE(otm.ok());
        EXPECT_EQ(*otm, ea_full) << "EA-OTM at bucket edge t=" << t;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PtldbBucketBoundaryWidthTest,
                         testing::Values(1800, 3600, 7200));

// Service times at the very top of the int32 range: the highest hour
// bucket's upper edge (hour+1)*bucket_seconds exceeds INT32_MAX, so the
// table build must carry it in 64 bits — the int32 product would wrap
// negative and condense every tuple into every hour (UB under UBSan).
// Times sit on exact bucket multiples where they can so the edge-ownership
// rules are exercised at the same extreme.
TEST(PtldbBucketBoundaryTest, ServiceTimesNearInt32MaxDoNotOverflow) {
  // 596523 * 3600 = 2147482800 is the last hour edge below INT32_MAX.
  constexpr EventTime kTopEdge =
      EventTime::FromSeconds(int64_t{596523} * 3600);
  TimetableBuilder builder;
  const StopId q = builder.AddStop();
  const StopId m = builder.AddStop();
  const StopId a = builder.AddStop();
  const StopId b = builder.AddStop();
  const TripId t0 = builder.AddTrip();
  const TripId t1 = builder.AddTrip();
  const TripId t2 = builder.AddTrip();
  // Transfer chain q -> m -> a straddling the last hour edge.
  builder.AddConnection(q, m, kTopEdge - DSec(7200),
                        kTopEdge - DSec(5400), t0);
  builder.AddConnection(m, a, kTopEdge - DSec(3600), kTopEdge, t0);
  // Direct q -> b inside the very last (partial) hour bucket.
  builder.AddConnection(q, b, kTopEdge,
                        EventTime::Infinity() - DSec(1), t1);
  // Early q -> a alternative one bucket down, arriving on the edge.
  builder.AddConnection(q, a, kTopEdge - DSec(3600),
                        kTopEdge - DSec(1), t2);
  auto built = std::move(builder).Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Timetable tt = std::move(built).value();

  const TtlIndex index = BuildIndex(tt);
  const std::vector<StopId> targets = {a, b};
  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  auto db_r = PtldbDatabase::Build(index, options);
  ASSERT_TRUE(db_r.ok()) << db_r.status().ToString();
  auto db = std::move(db_r).value();
  ASSERT_TRUE(db->AddTargetSet("T", index, targets, 2).ok());

  for (const EventTime base :
       {kTopEdge - DSec(7200), kTopEdge - DSec(3600), kTopEdge}) {
    for (const EventTime t : {base - DSec(1), base, base + DSec(1)}) {
      const auto ea_full = BruteEaOneToMany(tt, q, targets, t);
      const auto ea = db->EaKnn("T", q, t, 2);
      ASSERT_TRUE(ea.ok());
      ExpectKnnValid(*ea, ea_full, 2, "EA near INT32_MAX");
      const auto ea_otm = db->EaOneToMany("T", q, t);
      ASSERT_TRUE(ea_otm.ok());
      EXPECT_EQ(*ea_otm, ea_full) << "EA-OTM t=" << t;
      EXPECT_EQ(*db->EarliestArrival(q, a, t), EarliestArrival(tt, q, a, t));
      EXPECT_EQ(*db->EarliestArrival(q, b, t), EarliestArrival(tt, q, b, t));
    }
  }
  for (const EventTime base :
       {kTopEdge - DSec(1), kTopEdge, EventTime::Infinity() - DSec(1)}) {
    for (const EventTime t_end : {base, base + DSec(1)}) {
      const auto ld_full = BruteLdOneToMany(tt, q, targets, t_end);
      const auto ld = db->LdKnn("T", q, t_end, 2);
      ASSERT_TRUE(ld.ok());
      ExpectKnnValid(*ld, ld_full, 2, "LD near INT32_MAX");
      const auto ld_otm = db->LdOneToMany("T", q, t_end);
      ASSERT_TRUE(ld_otm.ok());
      EXPECT_EQ(*ld_otm, ld_full) << "LD-OTM t_end=" << t_end;
      EXPECT_EQ(*db->LatestDeparture(q, b, t_end),
                LatestDeparture(tt, q, b, t_end));
    }
  }
  EXPECT_EQ(
      *db->ShortestDuration(q, a, kTopEdge - DSec(7200),
                            EventTime::Infinity()),
      ShortestDuration(tt, q, a, kTopEdge - DSec(7200),
                       EventTime::Infinity()));
}

// ---------- Target-set edge cases ----------

// k larger than the target set: every reachable target comes back, k just
// stops truncating. (k > kmax is still a usage error, covered above.)
TEST(PtldbEdgeTest, KnnWithKLargerThanTargetSet) {
  const Timetable tt = SmallCity(44);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(12);
  const std::vector<StopId> targets = rng.SampleDistinct(tt.num_stops(), 5);
  ASSERT_TRUE(db->AddTargetSet("T", index, targets, 8).ok());
  ASSERT_TRUE(db->AddPaperKnnTables("T", index).ok());
  for (int trial = 0; trial < 20; ++trial) {
    const StopId q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                        tt.max_time().raw_seconds()));
    const auto ea_full = BruteEaOneToMany(tt, q, targets, t);
    const auto ld_full = BruteLdOneToMany(tt, q, targets, t);
    for (const uint32_t k : {6u, 8u}) {  // Both exceed |T| = 5.
      ASSERT_GT(k, targets.size());
      const auto ea = db->EaKnn("T", q, t, k);
      ASSERT_TRUE(ea.ok());
      ExpectKnnValid(*ea, ea_full, k, "EA k>|T|");
      const auto ea_naive = db->EaKnnNaive("T", q, t, k);
      ASSERT_TRUE(ea_naive.ok());
      ExpectKnnValid(*ea_naive, ea_full, k, "EA-naive k>|T|");
      const auto ld = db->LdKnn("T", q, t, k);
      ASSERT_TRUE(ld.ok());
      ExpectKnnValid(*ld, ld_full, k, "LD k>|T|");
    }
  }
}

// Duplicate stops in the target list collapse to set semantics: the set
// behaves exactly like its deduplicated form, and no answer ever lists a
// stop twice.
TEST(PtldbEdgeTest, DuplicateTargetsCollapseToSetSemantics) {
  const Timetable tt = SmallCity(45);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(13);
  const std::vector<StopId> uniq = rng.SampleDistinct(tt.num_stops(), 6);
  std::vector<StopId> dup = uniq;
  dup.push_back(uniq[0]);
  dup.push_back(uniq[3]);
  dup.push_back(uniq[0]);
  ASSERT_TRUE(db->AddTargetSet("dup", index, dup, 8).ok());
  ASSERT_TRUE(db->AddTargetSet("uniq", index, uniq, 8).ok());
  for (int trial = 0; trial < 20; ++trial) {
    const StopId q = static_cast<StopId>(rng.NextBelow(tt.num_stops()));
    const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                        tt.max_time().raw_seconds()));
    // Brute takes the raw duplicated list and dedups internally too.
    ExpectKnnValid(*db->EaKnn("dup", q, t, 8),
                   BruteEaOneToMany(tt, q, dup, t), 8, "EA dup");
    EXPECT_EQ(*db->EaOneToMany("dup", q, t), *db->EaOneToMany("uniq", q, t));
    EXPECT_EQ(*db->LdOneToMany("dup", q, t), *db->LdOneToMany("uniq", q, t));
    EXPECT_EQ(*db->EaKnn("dup", q, t, 3), *db->EaKnn("uniq", q, t, 3));
    EXPECT_EQ(*db->LdKnn("dup", q, t, 3), *db->LdKnn("uniq", q, t, 3));
  }
}

// The query stop inside its own target set: EA reports arrival t and LD
// departure t_end ("stay put" — see the kNN doc block in ptldb.h). The
// optimized plan, the naive table and the brute oracle must all agree.
TEST(PtldbEdgeTest, QueryStopInsideTargetSet) {
  const Timetable tt = SmallCity(46);
  const TtlIndex index = BuildIndex(tt);
  auto db = BuildDb(index);
  Rng rng(14);
  const std::vector<StopId> targets = rng.SampleDistinct(tt.num_stops(), 8);
  ASSERT_TRUE(db->AddTargetSet("T", index, targets, 4).ok());
  ASSERT_TRUE(db->AddPaperKnnTables("T", index).ok());
  for (const StopId q : targets) {
    for (int trial = 0; trial < 5; ++trial) {
      const auto t = TSec(rng.NextInRange(tt.min_time().raw_seconds(),
                                          tt.max_time().raw_seconds()));
      const auto ea_full = BruteEaOneToMany(tt, q, targets, t);
      const auto ld_full = BruteLdOneToMany(tt, q, targets, t);
      // The self-answer is always first: nothing beats "already there".
      ASSERT_FALSE(ea_full.empty());
      EXPECT_EQ(ea_full.front(), (StopTimeResult{q, t}));
      ASSERT_FALSE(ld_full.empty());
      EXPECT_EQ(ld_full.front(), (StopTimeResult{q, t}));
      for (const uint32_t k : {1u, 4u}) {
        const auto ea = db->EaKnn("T", q, t, k);
        ASSERT_TRUE(ea.ok());
        ExpectKnnValid(*ea, ea_full, k, "EA self");
        const auto ea_naive = db->EaKnnNaive("T", q, t, k);
        ASSERT_TRUE(ea_naive.ok());
        ExpectKnnValid(*ea_naive, ea_full, k, "EA-naive self");
        const auto ld = db->LdKnn("T", q, t, k);
        ASSERT_TRUE(ld.ok());
        ExpectKnnValid(*ld, ld_full, k, "LD self");
        const auto ld_naive = db->LdKnnNaive("T", q, t, k);
        ASSERT_TRUE(ld_naive.ok());
        ExpectKnnValid(*ld_naive, ld_full, k, "LD-naive self");
      }
      const auto ea_otm = db->EaOneToMany("T", q, t);
      ASSERT_TRUE(ea_otm.ok());
      EXPECT_EQ(*ea_otm, ea_full);
      const auto ld_otm = db->LdOneToMany("T", q, t);
      ASSERT_TRUE(ld_otm.ok());
      EXPECT_EQ(*ld_otm, ld_full);
    }
  }
}

// ---------- Multi-service-period support (Section 3.1) ----------

class CalendarTest : public testing::Test {
 protected:
  void SetUp() override {
    // One directory per case: ctest runs the cases as parallel processes.
    dir_ = std::filesystem::path(testing::TempDir()) /
           (std::string("calendar_ptldb_") +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    Write("stops.txt",
          "stop_id,stop_name,stop_lat,stop_lon\n"
          "A,Alpha,0,0\nB,Beta,0,1\nC,Gamma,1,1\n");
    Write("trips.txt",
          "route_id,service_id,trip_id\n"
          "R,WK,T1\nR,WK,T2\nR,WE,T3\n");
    // Weekdays: A->B->C morning + B->C midday; weekends: only A->B later.
    Write("stop_times.txt",
          "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n"
          "T1,08:00:00,08:00:00,A,1\n"
          "T1,08:20:00,08:21:00,B,2\n"
          "T1,08:40:00,08:40:00,C,3\n"
          "T2,12:00:00,12:00:00,B,1\n"
          "T2,12:30:00,12:30:00,C,2\n"
          "T3,10:00:00,10:00:00,A,1\n"
          "T3,10:45:00,10:45:00,B,2\n");
    Write("calendar.txt",
          "service_id,monday,tuesday,wednesday,thursday,friday,saturday,"
          "sunday,start_date,end_date\n"
          "WK,1,1,1,1,1,0,0,20260101,20261231\n"
          "WE,0,0,0,0,0,1,1,20260101,20261231\n");
  }

  void Write(const std::string& name, const std::string& content) {
    ASSERT_TRUE(WriteStringToFile((dir_ / name).string(), content).ok());
  }

  std::filesystem::path dir_;
};

TEST_F(CalendarTest, BuildsOnePeriodPerDistinctTimetable) {
  CalendarPtldb::Options options;
  options.database.device = DeviceProfile::Ram();
  auto calendar = CalendarPtldb::FromGtfs(dir_.string(), options);
  ASSERT_TRUE(calendar.ok()) << calendar.status().ToString();
  // Mon-Fri share one timetable, Sat/Sun another.
  EXPECT_EQ((*calendar)->num_distinct_periods(), 2u);

  // Weekday: A reaches C at 08:40.
  auto weekday =
      (*calendar)->EarliestArrival(Weekday::kWednesday, "A", "C", TSec(7 * 3600));
  ASSERT_TRUE(weekday.ok());
  EXPECT_EQ(*weekday, TSec(8 * 3600 + 40 * 60));
  // Weekend: C is unreachable, A->B arrives 10:45.
  auto weekend_c =
      (*calendar)->EarliestArrival(Weekday::kSunday, "A", "C", TSec(7 * 3600));
  ASSERT_TRUE(weekend_c.ok());
  EXPECT_EQ(*weekend_c, EventTime::Infinity());
  auto weekend_b =
      (*calendar)->EarliestArrival(Weekday::kSunday, "A", "B", TSec(7 * 3600));
  ASSERT_TRUE(weekend_b.ok());
  EXPECT_EQ(*weekend_b, TSec(10 * 3600 + 45 * 60));
}

TEST_F(CalendarTest, TargetSetsSpanAllPeriods) {
  CalendarPtldb::Options options;
  options.database.device = DeviceProfile::Ram();
  auto calendar = CalendarPtldb::FromGtfs(dir_.string(), options);
  ASSERT_TRUE(calendar.ok());
  ASSERT_TRUE((*calendar)->AddTargetSet("poi", {"B", "C"}, 2).ok());

  PtldbDatabase* monday = (*calendar)->ForDay(Weekday::kMonday);
  const StopId a = (*calendar)->StopFor(Weekday::kMonday, "A");
  const auto knn = monday->EaKnn("poi", a, TSec(7 * 3600), 2);
  ASSERT_TRUE(knn.ok());
  ASSERT_EQ(knn->size(), 2u);
  EXPECT_EQ((*knn)[0].time, TSec(8 * 3600 + 20 * 60));

  PtldbDatabase* sunday = (*calendar)->ForDay(Weekday::kSunday);
  const StopId a2 = (*calendar)->StopFor(Weekday::kSunday, "A");
  const auto weekend = sunday->EaKnn("poi", a2, TSec(7 * 3600), 2);
  ASSERT_TRUE(weekend.ok());
  ASSERT_EQ(weekend->size(), 1u);  // Only B reachable.
}

TEST_F(CalendarTest, UnknownStopsFail) {
  CalendarPtldb::Options options;
  options.database.device = DeviceProfile::Ram();
  auto calendar = CalendarPtldb::FromGtfs(dir_.string(), options);
  ASSERT_TRUE(calendar.ok());
  EXPECT_FALSE(
      (*calendar)->EarliestArrival(Weekday::kMonday, "zz", "A", TSec(0)).ok());
  EXPECT_FALSE((*calendar)->AddTargetSet("bad", {"zz"}, 2).ok());
}

// ---------- Storage behaviour ----------

TEST(PtldbStorageTest, V2vTouchesExactlyTwoLabelRows) {
  const Timetable tt = SmallCity(9);
  const TtlIndex index = BuildIndex(tt);
  PtldbOptions options;
  options.device = DeviceProfile::Hdd7200();
  auto db = PtldbDatabase::Build(index, options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->DropCaches().ok());
  (*db)->ResetIoStats();
  EXPECT_TRUE((*db)->EarliestArrival(3, 7, tt.min_time()).ok());
  // Two label rows: at most two random page accesses beyond index pages,
  // i.e. random reads are bounded by 2 (rows) + index height * 2.
  StorageDevice* device = (*db)->engine()->device();
  const uint64_t random_reads = device->reads() - device->sequential_reads();
  EXPECT_LE(random_reads, 8u);
  EXPECT_GT(device->total_ns(), 0u);
}

TEST(PtldbStorageTest, WarmCacheCostsNoIo) {
  const Timetable tt = SmallCity(10);
  const TtlIndex index = BuildIndex(tt);
  PtldbOptions options;
  options.device = DeviceProfile::Hdd7200();
  auto db = PtldbDatabase::Build(index, options);
  ASSERT_TRUE(db.ok());
  EXPECT_TRUE((*db)->EarliestArrival(3, 7, tt.min_time()).ok());
  (*db)->ResetIoStats();
  EXPECT_TRUE((*db)->EarliestArrival(3, 7, tt.min_time()).ok());  // Same rows, now cached.
  EXPECT_EQ((*db)->io_time_ns(), 0u);
}

// A handcrafted timetable whose event times sit a few hours below
// INT32_MAX: every layer that does time arithmetic (label merge kernels,
// the SD duration fold, bucket index math at the top of the key range)
// must run its intermediates in 64-bit. Answers are checked against both
// handcomputed values and the CSA/brute oracles.
TEST(PtldbOverflowTest, AnswersOnTimetableNearInt32Max) {
  const EventTime base = EventTime::Infinity() - DSec(8 * 3600);
  TimetableBuilder builder;
  for (int i = 0; i < 4; ++i) {
    builder.AddStop({.name = "s" + std::to_string(i)});
  }
  const TripId t1 = builder.AddTrip();
  const TripId t2 = builder.AddTrip();
  const TripId t3 = builder.AddTrip();
  builder.AddConnection(0, 1, base + DSec(100), base + DSec(200), t1);
  builder.AddConnection(1, 2, base + DSec(300), base + DSec(400), t2);
  builder.AddConnection(2, 3, base + DSec(500), base + DSec(600), t3);
  auto built = std::move(builder).Build();
  ASSERT_TRUE(built.ok());
  const Timetable tt = std::move(built).value();
  const TtlIndex index = BuildIndex(tt);

  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  auto db = PtldbDatabase::Build(index, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const std::vector<StopId> targets = {1, 3};
  ASSERT_TRUE((*db)->AddTargetSet("T", index, targets, 2).ok());
  const auto ea = (*db)->EarliestArrival(0, 3, base);
  ASSERT_TRUE(ea.ok());
  EXPECT_EQ(*ea, base + DSec(600));
  EXPECT_EQ(*ea, EarliestArrival(tt, 0, 3, base));
  const auto ld = (*db)->LatestDeparture(0, 3, base + DSec(600));
  ASSERT_TRUE(ld.ok());
  EXPECT_EQ(*ld, base + DSec(100));
  EXPECT_EQ(*ld, LatestDeparture(tt, 0, 3, base + DSec(600)));
  const auto sd =
      (*db)->ShortestDuration(0, 3, base, base + DSec(600));
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(*sd, DSec(500));
  EXPECT_EQ(*sd, ShortestDuration(tt, 0, 3, base, base + DSec(600)));
  // Unreachable stays the saturated sentinel, not a wrapped value.
  const auto none = (*db)->EarliestArrival(3, 0, base);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, EventTime::Infinity());
  const auto knn = (*db)->EaKnn("T", 0, base, 2);
  ASSERT_TRUE(knn.ok());
  ExpectKnnValid(*knn, BruteEaOneToMany(tt, 0, targets, base), 2,
                 "EA-kNN");
  const auto otm = (*db)->LdOneToMany("T", 0, base + DSec(600));
  ASSERT_TRUE(otm.ok());
  const auto brute = BruteLdOneToMany(tt, 0, targets, base + DSec(600));
  ASSERT_EQ(otm->size(), brute.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ((*otm)[i], brute[i]);
  }
}

TEST(PtldbStorageTest, SsdIsFasterThanHddForColdV2v) {
  const Timetable tt = SmallCity(11);
  const TtlIndex index = BuildIndex(tt);
  uint64_t io_ns[2] = {0, 0};
  const DeviceProfile profiles[2] = {DeviceProfile::Hdd7200(),
                                     DeviceProfile::SataSsd()};
  for (int i = 0; i < 2; ++i) {
    PtldbOptions options;
    options.device = profiles[i];
    auto db = PtldbDatabase::Build(index, options);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->DropCaches().ok());
    (*db)->ResetIoStats();
    EXPECT_TRUE((*db)->EarliestArrival(5, 17, tt.min_time()).ok());
    io_ns[i] = (*db)->io_time_ns();
  }
  EXPECT_GT(io_ns[0], io_ns[1] * 5);
}

}  // namespace
}  // namespace ptldb
