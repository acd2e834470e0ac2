#include <gtest/gtest.h>

#include <cstdlib>

#include "common/rng.h"
#include "pgsql/sql_writer.h"
#include "ptldb/ptldb.h"
#include "timetable/example_graph.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

#ifdef PTLDB_HAVE_LIBPQ
#include "pgsql/pg_backend.h"
#endif

#include "test_time.h"

namespace ptldb {
namespace {

// ---------- SQL text generation (always runs) ----------

TEST(SqlWriterTest, V2vSqlContainsPaperStructure) {
  const std::string ea = V2vSql(V2vKind::kEarliestArrival);
  EXPECT_NE(ea.find("WITH outp AS"), std::string::npos);
  EXPECT_NE(ea.find("UNNEST(hubs) AS hub"), std::string::npos);
  EXPECT_NE(ea.find("SELECT MIN(inp.ta)"), std::string::npos);
  EXPECT_NE(ea.find("outp.hub = inp.hub AND outp.ta <= inp.td"),
            std::string::npos);
  EXPECT_NE(ea.find("outp.td >= $3"), std::string::npos);

  const std::string ld = V2vSql(V2vKind::kLatestDeparture);
  EXPECT_NE(ld.find("SELECT MAX(outp.td)"), std::string::npos);
  EXPECT_NE(ld.find("inp.ta <= $3"), std::string::npos);

  const std::string sd = V2vSql(V2vKind::kShortestDuration);
  EXPECT_NE(sd.find("SELECT MIN(inp.ta - outp.td)"), std::string::npos);
  EXPECT_NE(sd.find("inp.ta <= $4"), std::string::npos);
}

TEST(SqlWriterTest, DdlDeclaresArrayColumnsAndKeys) {
  const std::string ddl = LabelTableDdl();
  EXPECT_NE(ddl.find("CREATE TABLE lout"), std::string::npos);
  EXPECT_NE(ddl.find("v    integer PRIMARY KEY"), std::string::npos);
  EXPECT_NE(ddl.find("hubs integer[]"), std::string::npos);

  const std::string sets = TargetSetDdl("poi");
  EXPECT_NE(sets.find("CREATE TABLE knn_ea_poi"), std::string::npos);
  EXPECT_NE(sets.find("PRIMARY KEY (hub, dephour)"), std::string::npos);
  EXPECT_NE(sets.find("PRIMARY KEY (hub, arrhour)"), std::string::npos);
  EXPECT_NE(sets.find("PRIMARY KEY (hub, td)"), std::string::npos);
}

TEST(SqlWriterTest, CopyPayloadForExampleGraph) {
  const Timetable tt = MakeExampleTimetable();
  TtlBuildOptions options;
  options.custom_order = ExampleVertexOrder();
  const auto index = BuildTtlIndex(tt, options);
  ASSERT_TRUE(index.ok());
  const std::string copy = LabelTableCopy(index->out, "lout");
  EXPECT_NE(copy.find("COPY lout (v, hubs, tds, tas) FROM stdin;"),
            std::string::npos);
  // Stop 0 has exactly its dummy tuple <0,360,360> (Table 1).
  EXPECT_NE(copy.find("0\t{0}\t{36000}\t{36000}"), std::string::npos);
  EXPECT_NE(copy.find("\\.\n"), std::string::npos);
}

TEST(SqlWriterTest, KnnSqlUsesSlicesAndBuckets) {
  const std::string knn = EaKnnSql("poi");
  EXPECT_NE(knn.find("knn_ea_poi"), std::string::npos);
  EXPECT_NE(knn.find("vs[1:$3]"), std::string::npos);
  EXPECT_NE(knn.find("FLOOR(n1.ta / 3600)"), std::string::npos);
  EXPECT_NE(knn.find("UNION"), std::string::npos);
  EXPECT_NE(knn.find("LIMIT $3"), std::string::npos);

  const std::string otm = EaOtmSql("poi");
  EXPECT_NE(otm.find("otm_ea_poi"), std::string::npos);
  EXPECT_EQ(otm.find("LIMIT"), std::string::npos);
  EXPECT_EQ(otm.find("[1:$3]"), std::string::npos);

  const std::string ld = LdKnnSql("poi");
  EXPECT_NE(ld.find("arrhour = $4"), std::string::npos);
  const std::string ld_otm = LdOtmSql("poi");
  EXPECT_NE(ld_otm.find("arrhour = $3"), std::string::npos);
}

TEST(SqlWriterTest, ExportScriptIsSelfContained) {
  const Timetable tt = MakeExampleTimetable();
  const auto index = BuildTtlIndex(tt);
  ASSERT_TRUE(index.ok());
  const std::string script = FullExportScript(*index);
  EXPECT_NE(script.find("BEGIN;"), std::string::npos);
  EXPECT_NE(script.find("CREATE TABLE lout"), std::string::npos);
  EXPECT_NE(script.find("COPY lin"), std::string::npos);
  EXPECT_NE(script.find("COMMIT;"), std::string::npos);
}

#ifdef PTLDB_HAVE_LIBPQ

// ---------- Real-PostgreSQL equivalence (needs PTLDB_PG_CONNINFO) ----------

const char* Conninfo() { return std::getenv("PTLDB_PG_CONNINFO"); }

class PgEquivalenceTest : public testing::Test {
 protected:
  void SetUp() override {
    if (Conninfo() == nullptr) {
      GTEST_SKIP() << "PTLDB_PG_CONNINFO not set "
                      "(run scripts/start_test_postgres.sh)";
    }
    GeneratorOptions o;
    o.num_stops = 70;
    o.target_connections = 3500;
    o.min_route_len = 4;
    o.max_route_len = 8;
    o.seed = 99;
    auto tt = GenerateNetwork(o);
    ASSERT_TRUE(tt.ok());
    tt_ = std::move(*tt);
    auto index = BuildTtlIndex(tt_);
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);

    PtldbOptions options;
    options.device = DeviceProfile::Ram();
    auto db = PtldbDatabase::Build(index_, options);
    ASSERT_TRUE(db.ok());
    db_ = std::move(*db);
    Rng rng(5);
    targets_ = rng.SampleDistinct(tt_.num_stops(), 12);
    ASSERT_TRUE(db_->AddTargetSet("poi", index_, targets_, 4).ok());
    ASSERT_TRUE(db_->AddPaperKnnTables("poi", index_).ok());

    auto pg = PgPtldb::Connect(Conninfo(), "ptldb_test");
    if (!pg.ok()) {
      GTEST_SKIP() << "cannot reach PostgreSQL: " << pg.status().ToString();
    }
    pg_ = std::move(*pg);
    ASSERT_TRUE(pg_->MirrorFrom(db_.get()).ok());
  }

  Timetable tt_;
  TtlIndex index_;
  std::unique_ptr<PtldbDatabase> db_;
  std::unique_ptr<PgPtldb> pg_;
  std::vector<StopId> targets_;
};

TEST_F(PgEquivalenceTest, V2vAnswersMatchEmbeddedEngine) {
  Rng rng(17);
  for (int i = 0; i < 60; ++i) {
    const auto s = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
    auto g = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
    if (g == s) g = (g + 1) % tt_.num_stops();
    const auto t = TSec(rng.NextInRange(tt_.min_time().raw_seconds(),
                                        tt_.max_time().raw_seconds()));
    const auto t_end =
        TSec(rng.NextInRange(t.raw_seconds(), tt_.max_time().raw_seconds()));

    const auto pg_ea = pg_->EarliestArrival(s, g, t);
    ASSERT_TRUE(pg_ea.ok()) << pg_ea.status().ToString();
    EXPECT_EQ(*pg_ea, *db_->EarliestArrival(s, g, t))
        << "EA " << s << "->" << g;

    const auto pg_ld = pg_->LatestDeparture(s, g, t_end);
    ASSERT_TRUE(pg_ld.ok());
    EXPECT_EQ(*pg_ld, *db_->LatestDeparture(s, g, t_end));

    const auto pg_sd = pg_->ShortestDuration(s, g, t, t_end);
    ASSERT_TRUE(pg_sd.ok());
    EXPECT_EQ(*pg_sd, *db_->ShortestDuration(s, g, t, t_end));
  }
}

TEST_F(PgEquivalenceTest, KnnAndOtmAnswersMatchEmbeddedEngine) {
  Rng rng(18);
  for (int i = 0; i < 15; ++i) {
    StopId q = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
    while (std::find(targets_.begin(), targets_.end(), q) != targets_.end()) {
      q = static_cast<StopId>(rng.NextBelow(tt_.num_stops()));
    }
    const auto t = TSec(rng.NextInRange(tt_.min_time().raw_seconds(),
                                        tt_.max_time().raw_seconds()));
    for (uint32_t k : {1u, 2u, 4u}) {
      const auto pg_ea = pg_->EaKnn("poi", q, t, k);
      ASSERT_TRUE(pg_ea.ok()) << pg_ea.status().ToString();
      const auto en_ea = db_->EaKnn("poi", q, t, k);
      ASSERT_TRUE(en_ea.ok());
      EXPECT_EQ(*pg_ea, *en_ea) << "EA-kNN q=" << q << " t=" << t << " k=" << k;

      const auto pg_ld = pg_->LdKnn("poi", q, t, k);
      ASSERT_TRUE(pg_ld.ok()) << pg_ld.status().ToString();
      const auto en_ld = db_->LdKnn("poi", q, t, k);
      ASSERT_TRUE(en_ld.ok());
      EXPECT_EQ(*pg_ld, *en_ld) << "LD-kNN q=" << q << " t=" << t << " k=" << k;

      const auto pg_nv = pg_->EaKnnNaive("poi", q, t, k);
      ASSERT_TRUE(pg_nv.ok()) << pg_nv.status().ToString();
      const auto en_nv = db_->EaKnnNaive("poi", q, t, k);
      ASSERT_TRUE(en_nv.ok());
      EXPECT_EQ(*pg_nv, *en_nv) << "EA-naive q=" << q;

      const auto pg_lnv = pg_->LdKnnNaive("poi", q, t, k);
      ASSERT_TRUE(pg_lnv.ok()) << pg_lnv.status().ToString();
      const auto en_lnv = db_->LdKnnNaive("poi", q, t, k);
      ASSERT_TRUE(en_lnv.ok());
      EXPECT_EQ(*pg_lnv, *en_lnv) << "LD-naive q=" << q;
    }
    const auto pg_otm = pg_->EaOneToMany("poi", q, t);
    ASSERT_TRUE(pg_otm.ok()) << pg_otm.status().ToString();
    const auto en_otm = db_->EaOneToMany("poi", q, t);
    ASSERT_TRUE(en_otm.ok());
    EXPECT_EQ(*pg_otm, *en_otm) << "EA-OTM q=" << q;

    const auto pg_lotm = pg_->LdOneToMany("poi", q, t);
    ASSERT_TRUE(pg_lotm.ok()) << pg_lotm.status().ToString();
    const auto en_lotm = db_->LdOneToMany("poi", q, t);
    ASSERT_TRUE(en_lotm.ok());
    EXPECT_EQ(*pg_lotm, *en_lotm) << "LD-OTM q=" << q;
  }
}

TEST_F(PgEquivalenceTest, PaperExampleOnRealPostgres) {
  // Rebuild the Figure-1 example on PostgreSQL and check EA(1,1,324)=324
  // plus the kNN worked example from Section 3.2.
  const Timetable example = MakeExampleTimetable();
  TtlBuildOptions options;
  options.custom_order = ExampleVertexOrder();
  const auto index = BuildTtlIndex(example, options);
  ASSERT_TRUE(index.ok());
  PtldbOptions popts;
  popts.device = DeviceProfile::Ram();
  auto db = PtldbDatabase::Build(*index, popts);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->AddTargetSet("t46", *index, {4, 6}, 2).ok());
  ASSERT_TRUE((*db)->AddPaperKnnTables("t46", *index).ok());
  auto pg = PgPtldb::Connect(Conninfo(), "ptldb_example");
  ASSERT_TRUE(pg.ok());
  ASSERT_TRUE((*pg)->MirrorFrom(db->get()).ok());

  const auto ea = (*pg)->EarliestArrival(1, 1, TSec(32400));
  ASSERT_TRUE(ea.ok());
  EXPECT_EQ(*ea, TSec(32400));

  const auto knn = (*pg)->EaKnnNaive("t46", 0, TSec(36000), 1);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  ASSERT_EQ(knn->size(), 1u);
  EXPECT_EQ((*knn)[0], (StopTimeResult{4, TSec(39600)}));
}

TEST_F(PgEquivalenceTest, NaiveConstructionSqlMatchesCppBuilder) {
  // The pure-SQL construction of knn_naive (our reconstruction of the
  // "simple SQL commands" the paper omits) must produce the same table the
  // C++ builder produced.
  ASSERT_TRUE(pg_->connection()
                  ->Exec("SET search_path TO ptldb_test;")
                  .ok());
  const std::string sql = NaiveTableConstructionSql("sqlbuilt", targets_, 4);
  ASSERT_TRUE(pg_->connection()->Exec(sql).ok());
  const auto diff = pg_->connection()->Query(
      "SELECT COUNT(*) FROM "
      "((TABLE knn_naive_sqlbuilt EXCEPT TABLE knn_naive_poi) UNION ALL "
      "(TABLE knn_naive_poi EXCEPT TABLE knn_naive_sqlbuilt)) d",
      {});
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_EQ((*diff)[0][0], "0");
}

#endif  // PTLDB_HAVE_LIBPQ

}  // namespace
}  // namespace ptldb
