// Ablations for the design choices DESIGN.md calls out:
//  (a) vertex-ordering heuristic (degree / event-count / identity) — label
//      size and preprocessing time (Section 2.2's "strict vertex ordering");
//  (b) label-coverage pruning on/off — the PLL idea behind small labels;
//  (c) hour-bucket width of the knn tables (Section 3.2.1's tuning
//      discussion: smaller buckets = more rows, larger buckets = fatter
//      exp arrays; one hour is the paper's compromise);
//  (d) v2v join strategy: the paper's literal Code 1 SQL (a hash join on
//      hub, as PostgreSQL plans it) run by the SQL interpreter vs. the
//      facade's compiled merge over the (hub, td)-ordered label arrays.
#include <cstdio>

#include "knn_bench.h"
#include "pgsql/sql_writer.h"
#include "ptldb/tables.h"
#include "sql/interpreter.h"
#include "ttl/builder.h"

using namespace ptldb;

int main(int argc, char** argv) {
  BenchConfig config = ParseBenchArgs(argc, argv);
  if (config.cities.empty()) config.cities = {"Austin", "SaltLakeCity"};

  std::printf("# Ablation (a): vertex-ordering heuristic\n\n");
  PrintTableHeader({"Graph", "ordering", "tuples/stop", "preproc (s)"});
  for (const CityProfile* profile : SelectCities(config)) {
    auto data = LoadOrBuildDataset(*profile, config);
    if (!data.ok()) return 1;
    const struct {
      OrderingStrategy strategy;
      const char* name;
    } strategies[] = {{OrderingStrategy::kDegree, "degree"},
                      {OrderingStrategy::kEventCount, "event-count"},
                      {OrderingStrategy::kIdentity, "identity"}};
    for (const auto& s : strategies) {
      TtlBuildOptions options;
      options.ordering = s.strategy;
      TtlBuildStats stats;
      auto index = BuildTtlIndex(data->tt, options, &stats);
      if (!index.ok()) return 1;
      char tuples[32], secs[32];
      std::snprintf(tuples, sizeof(tuples), "%.0f",
                    index->tuples_per_vertex());
      std::snprintf(secs, sizeof(secs), "%.2f", stats.preprocess_seconds);
      PrintTableRow({data->name, s.name, tuples, secs});
    }
  }

  std::printf("\n# Ablation (b): label-coverage pruning\n\n");
  PrintTableHeader({"Graph", "pruning", "tuples/stop", "preproc (s)"});
  for (const CityProfile* profile : SelectCities(config)) {
    auto data = LoadOrBuildDataset(*profile, config);
    if (!data.ok()) return 1;
    for (const bool prune : {true, false}) {
      TtlBuildOptions options;
      options.prune = prune;
      TtlBuildStats stats;
      auto index = BuildTtlIndex(data->tt, options, &stats);
      if (!index.ok()) return 1;
      char tuples[32], secs[32];
      std::snprintf(tuples, sizeof(tuples), "%.0f",
                    index->tuples_per_vertex());
      std::snprintf(secs, sizeof(secs), "%.2f", stats.preprocess_seconds);
      PrintTableRow({data->name, prune ? "on" : "off", tuples, secs});
    }
  }

  std::printf(
      "\n# Ablation (c): bucket width of the otm_* tables kNN reads "
      "(D=0.01, k=4, HDD)\n\n");
  PrintTableHeader({"Graph", "bucket", "table rows", "table MiB",
                    "EA-kNN (ms)", "LD-kNN (ms)"});
  for (const CityProfile* profile : SelectCities(config)) {
    auto data = LoadOrBuildDataset(*profile, config);
    if (!data.ok()) return 1;
    auto db = MakeBenchDb(*data, DeviceProfile::Hdd7200());
    if (!db.ok()) return 1;
    Rng trng(config.seed * 104729 + 7);
    const auto targets = MakeTargets(&trng, data->tt, *profile, 0.01);
    Rng wrng(config.seed * 31 + 5);
    const KnnWorkload w = MakeKnnWorkload(&wrng, data->tt, config.num_queries);
    const struct {
      int32_t seconds;
      const char* label;
    } widths[] = {{900, "15min"},
                  {1800, "30min"},
                  {3600, "1h (paper)"},
                  {7200, "2h"},
                  {14400, "4h"}};
    for (const auto& width : widths) {
      char set[16];
      std::snprintf(set, sizeof(set), "b%d", width.seconds);
      if (!(*db)->AddTargetSet(set, data->index, targets, 4,
                               Duration::FromSeconds(width.seconds))
               .ok()) {
        return 1;
      }
      const EngineTable* table =
          (*db)->engine()->FindTable(OtmEaTableName(set));
      const EngineTable* ld_table =
          (*db)->engine()->FindTable(OtmLdTableName(set));
      const double ea_ms =
          TimeQueries(db->get(), config.num_queries, [&](uint32_t i) {
            (void)(*db)->EaKnn(set, w.q[i], w.early[i], 4);
          });
      const double ld_ms =
          TimeQueries(db->get(), config.num_queries, [&](uint32_t i) {
            (void)(*db)->LdKnn(set, w.q[i], w.late[i], 4);
          });
      char rows[32], mib[32];
      std::snprintf(rows, sizeof(rows), "%llu",
                    static_cast<unsigned long long>(table->num_rows()));
      std::snprintf(mib, sizeof(mib), "%.2f",
                    (table->size_bytes() + ld_table->size_bytes()) /
                        1048576.0);
      PrintTableRow({data->name, width.label, rows, mib, Ms(ea_ms),
                     Ms(ld_ms)});
    }
  }
  std::printf("\n# Ablation (d): v2v join strategy (warm cache, CPU only)\n\n");
  PrintTableHeader({"Graph", "plan", "EA (ms)", "LD (ms)", "SD (ms)"});
  for (const CityProfile* profile : SelectCities(config)) {
    auto data = LoadOrBuildDataset(*profile, config);
    if (!data.ok()) return 1;
    auto db = MakeBenchDb(*data, DeviceProfile::Ram());
    if (!db.ok()) return 1;
    Rng rng(config.seed * 7919 + 13);
    const uint32_t n = config.num_queries;
    std::vector<StopId> src(n), dst(n);
    std::vector<EventTime> early(n), late(n);
    for (uint32_t i = 0; i < n; ++i) {
      src[i] = static_cast<StopId>(rng.NextBelow(data->tt.num_stops()));
      dst[i] = static_cast<StopId>(rng.NextBelow(data->tt.num_stops()));
      if (dst[i] == src[i]) dst[i] = (dst[i] + 1) % data->tt.num_stops();
      early[i] = RandomEarlyTime(&rng, data->tt);
      late[i] = RandomLateTime(&rng, data->tt);
    }
    SqlInterpreter sql((*db)->engine());
    const std::string ea_sql = V2vSql(V2vKind::kEarliestArrival);
    const std::string ld_sql = V2vSql(V2vKind::kLatestDeparture);
    const std::string sd_sql = V2vSql(V2vKind::kShortestDuration);
    for (const bool merge : {false, true}) {
      const double ea = TimeQueries(db->get(), n, [&](uint32_t i) {
        if (merge) {
          (void)(*db)->EarliestArrival(src[i], dst[i], early[i]);
        } else {
          (void)sql.Execute(ea_sql, {src[i], dst[i], early[i].raw_seconds()});
        }
      });
      const double ld = TimeQueries(db->get(), n, [&](uint32_t i) {
        if (merge) {
          (void)(*db)->LatestDeparture(src[i], dst[i], late[i]);
        } else {
          (void)sql.Execute(ld_sql, {src[i], dst[i], late[i].raw_seconds()});
        }
      });
      const double sd = TimeQueries(db->get(), n, [&](uint32_t i) {
        if (merge) {
          (void)(*db)->ShortestDuration(src[i], dst[i], early[i], late[i]);
        } else {
          (void)sql.Execute(sd_sql, {src[i], dst[i], early[i].raw_seconds(),
                                     late[i].raw_seconds()});
        }
      });
      PrintTableRow({data->name, merge ? "merge (ordered arrays)"
                                       : "hash join (SQL-shaped)",
                     Ms(ea), Ms(ld), Ms(sd)});
    }
  }
  return 0;
}
