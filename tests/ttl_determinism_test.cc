// Pins the determinism guarantee of the wave-parallel TTL build: the index
// (labels, stats, serialized bytes) is identical for every thread count and
// wave partition, and equal to what the pre-parallel serial builder
// produced. The CRC32C goldens below were captured from the serial
// hub-at-a-time implementation before the wave build existed — equality
// against them is equality with that builder, byte for byte.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <algorithm>
#include <limits>

#include "common/checksum.h"
#include "common/rng.h"
#include "ptldb/ptldb.h"
#include "timetable/example_graph.h"
#include "timetable/generator.h"
#include "ttl/builder.h"
#include "ttl/label_store.h"
#include "ttl/serialize.h"

#include "sql_oracle.h"
#include "test_time.h"

namespace ptldb {
namespace {

const uint32_t kThreadCounts[] = {1, 2, 4, 8};

std::string ReadFileBytes(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string out;
  char buf[65536];
  size_t n;
  while (f != nullptr && (n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  if (f != nullptr) std::fclose(f);
  return out;
}

std::string SerializedBytes(const TtlIndex& index, const char* tag) {
  const std::string path =
      testing::TempDir() + "/determinism_" + tag + ".ttl";
  EXPECT_TRUE(SaveTtlIndex(index, path).ok());
  return ReadFileBytes(path);
}

Timetable MediumCity(uint64_t seed) {
  GeneratorOptions o;
  o.num_stops = 80;
  o.target_connections = 4000;
  o.min_route_len = 4;
  o.max_route_len = 9;
  o.seed = seed;
  auto tt = GenerateNetwork(o);
  EXPECT_TRUE(tt.ok());
  return std::move(tt).value();
}

void ExpectLabelsEqual(const TtlIndex& a, const TtlIndex& b) {
  ASSERT_EQ(a.num_stops(), b.num_stops());
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.rank, b.rank);
  for (StopId v = 0; v < a.num_stops(); ++v) {
    const auto ao = a.out.tuples(v);
    const auto bo = b.out.tuples(v);
    ASSERT_EQ(ao.size(), bo.size()) << "L_out size at stop " << v;
    for (size_t i = 0; i < ao.size(); ++i) {
      EXPECT_EQ(ao[i], bo[i]) << "L_out tuple " << i << " at stop " << v;
    }
    const auto ai = a.in.tuples(v);
    const auto bi = b.in.tuples(v);
    ASSERT_EQ(ai.size(), bi.size()) << "L_in size at stop " << v;
    for (size_t i = 0; i < ai.size(); ++i) {
      EXPECT_EQ(ai[i], bi[i]) << "L_in tuple " << i << " at stop " << v;
    }
  }
}

void ExpectStatsEqual(const TtlBuildStats& a, const TtlBuildStats& b) {
  EXPECT_EQ(a.out_tuples, b.out_tuples);
  EXPECT_EQ(a.in_tuples, b.in_tuples);
  EXPECT_EQ(a.dummy_tuples, b.dummy_tuples);
  EXPECT_EQ(a.pruned_candidates, b.pruned_candidates);
  ASSERT_EQ(a.waves.size(), b.waves.size());
  for (size_t w = 0; w < a.waves.size(); ++w) {
    EXPECT_EQ(a.waves[w].first_rank, b.waves[w].first_rank) << "wave " << w;
    EXPECT_EQ(a.waves[w].num_hubs, b.waves[w].num_hubs) << "wave " << w;
    EXPECT_EQ(a.waves[w].candidate_tuples, b.waves[w].candidate_tuples)
        << "wave " << w;
    EXPECT_EQ(a.waves[w].merged_tuples, b.waves[w].merged_tuples)
        << "wave " << w;
    EXPECT_EQ(a.waves[w].scan_pruned, b.waves[w].scan_pruned) << "wave " << w;
    EXPECT_EQ(a.waves[w].merge_pruned, b.waves[w].merge_pruned)
        << "wave " << w;
  }
}

// Builds with every thread count and checks labels, stats, and serialized
// bytes all agree; returns the common serialized bytes.
std::string BuildAllThreadCounts(const Timetable& tt, const char* tag,
                                 TtlBuildOptions base = {}) {
  std::string ref_bytes;
  TtlIndex ref_index;
  TtlBuildStats ref_stats;
  for (const uint32_t threads : kThreadCounts) {
    TtlBuildOptions options = base;
    options.num_threads = threads;
    TtlBuildStats stats;
    auto index = BuildTtlIndex(tt, options, &stats);
    EXPECT_TRUE(index.ok());
    EXPECT_EQ(stats.num_threads_used, threads);
    const std::string bytes = SerializedBytes(*index, tag);
    if (threads == 1) {
      ref_bytes = bytes;
      ref_index = std::move(index).value();
      ref_stats = stats;
      continue;
    }
    EXPECT_EQ(bytes, ref_bytes)
        << tag << ": serialized index differs between 1 and " << threads
        << " threads";
    ExpectLabelsEqual(*index, ref_index);
    ExpectStatsEqual(stats, ref_stats);
  }
  return ref_bytes;
}

// Golden bytes captured from the pre-wave serial builder. Any change here
// means the construction no longer reproduces the original algorithm.
TEST(TtlDeterminismTest, ExampleGraphMatchesSerialGolden) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions base;
  base.custom_order = ExampleVertexOrder();
  const std::string bytes = BuildAllThreadCounts(tt, "example", base);
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x84cf3d08u);
}

TEST(TtlDeterminismTest, GeneratedGraphsMatchSerialGoldens) {
  struct Golden {
    uint64_t seed;
    size_t bytes;
    uint32_t crc;
  };
  // Captured from the serial builder on these exact generator options.
  const Golden goldens[] = {
      {7, 631500, 0x8718d352},
      {1234, 645040, 0x4e365470},
      {99, 589740, 0xd4b6fc83},
  };
  for (const Golden& g : goldens) {
    const Timetable tt = MediumCity(g.seed);
    char tag[32];
    std::snprintf(tag, sizeof(tag), "gen%llu", (unsigned long long)g.seed);
    const std::string bytes = BuildAllThreadCounts(tt, tag);
    EXPECT_EQ(bytes.size(), g.bytes) << "seed " << g.seed;
    EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), g.crc) << "seed " << g.seed;
  }
}

// The wave partition is a performance knob, not a semantic one: any cap
// (including one that serializes everything into singleton waves) yields
// the same canonical labels.
TEST(TtlDeterminismTest, WavePartitionDoesNotChangeTheIndex) {
  const Timetable tt = MediumCity(7);
  std::string ref;
  for (const uint32_t cap : {1u, 2u, 16u, 64u, 1000u}) {
    TtlBuildOptions options;
    options.max_wave_hubs = cap;
    options.num_threads = 4;
    TtlBuildStats stats;
    auto index = BuildTtlIndex(tt, options, &stats);
    ASSERT_TRUE(index.ok());
    char tag[32];
    std::snprintf(tag, sizeof(tag), "cap%u", cap);
    const std::string bytes = SerializedBytes(*index, tag);
    if (ref.empty()) {
      ref = bytes;
    } else {
      EXPECT_EQ(bytes, ref) << "index differs at wave cap " << cap;
    }
    // Waves cover all hubs exactly once, in rank order.
    uint32_t covered = 0;
    for (const TtlWaveStats& w : stats.waves) {
      EXPECT_EQ(w.first_rank, covered);
      EXPECT_LE(w.num_hubs, std::max(cap, 1u));
      covered += w.num_hubs;
    }
    EXPECT_EQ(covered, tt.num_stops());
  }
  EXPECT_EQ(Crc32c(ref.data(), ref.size()), 0x8718d352u);
}

// Pruning off is the ablation configuration: still deterministic across
// thread counts (no goldens — plain hierarchical labels are much larger).
TEST(TtlDeterminismTest, UnprunedBuildIsAlsoDeterministic) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions base;
  base.prune = false;
  BuildAllThreadCounts(tt, "unpruned", base);
}

// The label codec inherits the build's determinism: the encoded
// arenas (delta+varint buckets, tier CRC over L_out then L_in) must be
// byte-identical for every thread count, and pinned against goldens so a
// codec change that silently alters the wire format is caught here. The
// golden CRCs were captured from the single-threaded build.
TEST(TtlDeterminismTest, CompressedLabelTierIsDeterministicAcrossThreads) {
  struct Golden {
    uint64_t seed;  // 0 = the example graph
    uint64_t bytes;
    uint32_t crc;
  };
  const Golden goldens[] = {
      {0, 234, 0x00895e65u},
      {7, 147118, 0xcd76e206u},
      {1234, 150638, 0xda56cbf3u},
  };
  for (const Golden& g : goldens) {
    uint32_t ref_crc = 0;
    uint64_t ref_bytes = 0;
    const Timetable tt = g.seed == 0 ? MakeExampleTimetable()
                                     : MediumCity(g.seed);
    for (const uint32_t threads : kThreadCounts) {
      TtlBuildOptions options;
      if (g.seed == 0) options.custom_order = ExampleVertexOrder();
      options.num_threads = threads;
      auto index = BuildTtlIndex(tt, options);
      ASSERT_TRUE(index.ok());
      auto store = LabelStore::Build(*index);
      ASSERT_TRUE(store.ok());
      if (threads == kThreadCounts[0]) {
        ref_crc = (*store)->content_crc();
        ref_bytes = (*store)->bytes_resident();
        EXPECT_EQ(ref_bytes, g.bytes) << "seed " << g.seed;
        EXPECT_EQ(ref_crc, g.crc) << "seed " << g.seed;
        continue;
      }
      EXPECT_EQ((*store)->content_crc(), ref_crc)
          << "seed " << g.seed << ": encoded labels differ between "
          << kThreadCounts[0] << " and " << threads << " threads";
      EXPECT_EQ((*store)->bytes_resident(), ref_bytes) << "seed " << g.seed;
    }
  }
}

// The executor must not be a source of nondeterminism either: exhaustively
// over every ordered stop pair of the example graph and every event
// boundary (each departure/arrival time and one second to either side),
// the facade's compiled VM programs and the paper's literal SQL run by the
// SQL interpreter return identical answers for all seven query types (set
// queries only for q ∉ T, which the SQL does not special-case). The build
// goldens above pin the index bytes; this pins that executor choice can
// never leak into an answer served from those bytes.
TEST(TtlDeterminismTest, ExecutorChoiceDoesNotChangeAnswers) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions build;
  build.custom_order = ExampleVertexOrder();
  auto index = BuildTtlIndex(tt, build);
  ASSERT_TRUE(index.ok());

  std::vector<EventTime> times;
  for (const Connection& c : tt.connections()) {
    for (const EventTime base : {c.dep, c.arr}) {
      times.push_back(base - DSec(1));
      times.push_back(base);
      times.push_back(base + DSec(1));
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  std::vector<StopId> targets;
  for (StopId v = 0; v < tt.num_stops(); v += 2) targets.push_back(v);

  PtldbOptions options;
  options.device = DeviceProfile::Ram();
  auto built = PtldbDatabase::Build(*index, options);
  ASSERT_TRUE(built.ok());
  PtldbDatabase* db = built->get();
  ASSERT_TRUE(db->AddTargetSet("t", *index, targets, 4).ok());
  ASSERT_TRUE(db->AddPaperKnnTables("t", *index).ok());
  SqlOracle sql(db);
  const EventTime t_end = tt.max_time();
  for (StopId s = 0; s < tt.num_stops(); ++s) {
    const bool in_t =
        std::binary_search(targets.begin(), targets.end(), s);
    for (const EventTime t : times) {
      for (StopId g = 0; g < tt.num_stops(); ++g) {
        if (g == s) continue;
        const auto ea_v = db->EarliestArrival(s, g, t);
        const auto ld_v = db->LatestDeparture(s, g, t);
        const auto sd_v = db->ShortestDuration(s, g, t, t_end);
        const auto ea_i = sql.EarliestArrival(s, g, t);
        const auto ld_i = sql.LatestDeparture(s, g, t);
        const auto sd_i = sql.ShortestDuration(s, g, t, t_end);
        ASSERT_TRUE(ea_v.ok() && ea_i.ok() && ld_v.ok() && ld_i.ok() &&
                    sd_v.ok() && sd_i.ok());
        EXPECT_EQ(*ea_v, *ea_i) << "EA s=" << s << " g=" << g << " t=" << t;
        EXPECT_EQ(*ld_v, *ld_i) << "LD s=" << s << " g=" << g << " t=" << t;
        EXPECT_EQ(*sd_v, *sd_i) << "SD s=" << s << " g=" << g << " t=" << t;
      }
      if (in_t) continue;
      const auto eaknn_v = db->EaKnn("t", s, t, 2);
      const auto ldknn_v = db->LdKnn("t", s, t, 2);
      const auto eaotm_v = db->EaOneToMany("t", s, t);
      const auto ldotm_v = db->LdOneToMany("t", s, t);
      const auto eaknn_i = sql.EaKnn("t", s, t, 2);
      const auto ldknn_i = sql.LdKnn("t", s, t, 2);
      const auto eaotm_i = sql.EaOneToMany("t", s, t);
      const auto ldotm_i = sql.LdOneToMany("t", s, t);
      ASSERT_TRUE(eaknn_v.ok() && eaknn_i.ok() && ldknn_v.ok() &&
                  ldknn_i.ok() && eaotm_v.ok() && eaotm_i.ok() &&
                  ldotm_v.ok() && ldotm_i.ok());
      EXPECT_EQ(*eaknn_v, *eaknn_i) << "EA-kNN q=" << s << " t=" << t;
      EXPECT_EQ(*ldknn_v, *ldknn_i) << "LD-kNN q=" << s << " t=" << t;
      EXPECT_EQ(*eaotm_v, *eaotm_i) << "EA-OTM q=" << s << " t=" << t;
      EXPECT_EQ(*ldotm_v, *ldotm_i) << "LD-OTM q=" << s << " t=" << t;
    }
  }
}

// num_threads = 0 ("use the hardware") must resolve to some worker count
// and still produce the canonical index.
TEST(TtlDeterminismTest, HardwareThreadCountProducesSameIndex) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions options;
  options.num_threads = 0;
  TtlBuildStats stats;
  auto index = BuildTtlIndex(tt, options, &stats);
  ASSERT_TRUE(index.ok());
  EXPECT_GE(stats.num_threads_used, 1u);
  // The example graph's degree order coincides with the paper's order, so
  // the golden is the same as ExampleGraphMatchesSerialGolden.
  const std::string bytes = SerializedBytes(*index, "hw");
  EXPECT_EQ(bytes.size(), 888u);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), 0x84cf3d08u);
}

// CRC-32C of a table's rows in key order: each row's primary key, then
// every decoded column (an int32, or an array's length and elements), all
// little-endian. Pins the stored content, not the page layout.
struct TableDigest {
  std::string table;
  uint64_t rows = 0;
  uint32_t crc = 0;
};

TableDigest DigestTable(PtldbDatabase* db, const std::string& name) {
  TableDigest digest{name};
  const EngineTable* table = db->engine()->FindTable(name);
  EXPECT_NE(table, nullptr) << name << " is not built";
  if (table == nullptr) return digest;
  std::string bytes;
  const auto put = [&bytes](uint64_t x, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<char>(x >> (8 * i)));
    }
  };
  auto cursor = table->Seek(std::numeric_limits<IndexKey>::min(),
                            db->engine()->buffer_pool());
  for (; cursor.Valid(); cursor.Next()) {
    const auto row = cursor.row();
    EXPECT_TRUE(row.ok()) << name;
    if (!row.ok()) return digest;
    put(static_cast<uint64_t>(cursor.key()), 8);
    for (const Value& value : *row) {
      if (value.type() == ColumnType::kInt32) {
        put(static_cast<uint32_t>(value.AsInt()), 4);
        continue;
      }
      put(value.AsArray().size(), 4);
      for (const int32_t x : value.AsArray()) put(static_cast<uint32_t>(x), 4);
    }
    ++digest.rows;
  }
  EXPECT_TRUE(cursor.status().ok()) << name;
  digest.crc = Crc32c(bytes.data(), bytes.size());
  return digest;
}

// Every derived table of a target set — the two otm_* tables AddTargetSet
// builds and the three the paper's literal SQL reads, built on request —
// pinned row for row on two fixed sets, at 1 and 4 build threads. The
// goldens were captured from the builder that emitted all four bucket
// tables in one pass, so a rewrite of the write path must reproduce its
// tables exactly.
TEST(DerivedTableGoldenTest, SetTablesMatchGoldens) {
  struct Case {
    const char* what;
    TtlIndex index;
    std::vector<StopId> targets;
    uint32_t kmax;
    std::vector<TableDigest> goldens;
  };
  std::vector<Case> cases;
  {
    TtlBuildOptions options;
    options.custom_order = ExampleVertexOrder();
    auto index = BuildTtlIndex(MakeExampleTimetable(), options);
    ASSERT_TRUE(index.ok());
    cases.push_back({"figure 1", std::move(index).value(), {3, 4, 6}, 1,
                     {{"otm_ea_g", 20, 0x12104acc},
                      {"otm_ld_g", 8, 0x851ddcd7},
                      {"knn_ea_g", 20, 0x1557fa78},
                      {"knn_ld_g", 8, 0x2910b55d},
                      {"knn_naive_g", 5, 0xb25a03d2}}});
  }
  {
    auto index = BuildTtlIndex(MediumCity(7));
    ASSERT_TRUE(index.ok());
    cases.push_back({"generated seed 7", std::move(index).value(),
                     Rng(9).SampleDistinct(80, 12), 4,
                     {{"otm_ea_g", 715, 0x215a226c},
                      {"otm_ld_g", 757, 0x8bcd5860},
                      {"knn_ea_g", 715, 0x0ac62c41},
                      {"knn_ld_g", 757, 0x022dee93},
                      {"knn_naive_g", 1678, 0x64dbb679}}});
  }
  for (const Case& c : cases) {
    for (const uint32_t threads : {1u, 4u}) {
      PtldbOptions options;
      options.device = DeviceProfile::Ram();
      options.num_threads = threads;
      auto db = PtldbDatabase::Build(c.index, options);
      ASSERT_TRUE(db.ok());
      ASSERT_TRUE((*db)->AddTargetSet("g", c.index, c.targets, c.kmax).ok());
      ASSERT_TRUE((*db)->AddPaperKnnTables("g", c.index).ok());
      for (const TableDigest& golden : c.goldens) {
        const TableDigest got = DigestTable(db->get(), golden.table);
        EXPECT_TRUE(got.rows == golden.rows && got.crc == golden.crc)
            << c.what << ", " << threads << " threads: {\"" << golden.table
            << "\", " << got.rows << ", 0x" << std::hex << got.crc << "}";
      }
    }
  }
}

}  // namespace
}  // namespace ptldb
