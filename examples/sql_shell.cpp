// Interactive SQL shell over the embedded PTLDB engine: builds a city,
// loads the PTLDB tables and evaluates the paper's SQL dialect directly —
// no PostgreSQL required.
//
//   ./sql_shell [--city NAME] [--scale S] [-c "SELECT ..."]...
//
// Without -c, reads statements from stdin (one per line; parameters are
// not available interactively, so inline the values).
#include <cstdio>
#include <iostream>
#include <string>

#include "common/rng.h"
#include "pgsql/sql_writer.h"
#include "ptldb/ptldb.h"
#include "sql/interpreter.h"
#include "sql/system_tables.h"
#include "timetable/generator.h"
#include "ttl/builder.h"

namespace {

void PrintRelation(const ptldb::SqlRelation& relation) {
  for (const auto& col : relation.columns) {
    std::printf("%-12s", col.name.c_str());
  }
  std::printf("\n");
  for (const auto& row : relation.rows) {
    for (const auto& value : row) {
      if (ptldb::SqlIsNull(value)) {
        std::printf("%-12s", "NULL");
      } else if (std::holds_alternative<int64_t>(value)) {
        const int64_t v = std::get<int64_t>(value);
        if (v == ptldb::kInfinityTime || v == ptldb::kNegInfinityTime) {
          // Unreachable-pair sentinels must never leak as raw integers;
          // the interpreter returns NULL for empty aggregates, but a user
          // query can still COALESCE one in (e.g. pasted from the
          // paper's PostgreSQL dialect, which uses them as defaults).
          std::printf("%-12s", "unreachable");
        } else {
          std::printf("%-12lld", static_cast<long long>(v));
        }
      } else if (std::holds_alternative<std::string>(value)) {
        // Text rows (EXPLAIN ANALYZE plans) print unpadded.
        std::printf("%s", std::get<std::string>(value).c_str());
      } else {
        const auto& arr = std::get<std::vector<int32_t>>(value);
        std::string text = "{";
        for (size_t i = 0; i < arr.size() && i < 6; ++i) {
          if (i > 0) text += ",";
          text += std::to_string(arr[i]);
        }
        if (arr.size() > 6) text += ",...";
        text += "}";
        std::printf("%-12s", text.c_str());
      }
    }
    std::printf("\n");
  }
  std::printf("(%zu rows)\n", relation.rows.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ptldb;

  std::string city = "Austin";
  double scale = 0.05;
  std::vector<std::string> commands;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--city") city = next();
    else if (arg == "--scale") scale = std::atof(next());
    else if (arg == "-c") commands.emplace_back(next());
  }

  const CityProfile* profile = FindCityProfile(city);
  if (profile == nullptr) {
    std::fprintf(stderr, "unknown city %s\n", city.c_str());
    return 1;
  }
  auto tt = GenerateNetwork(CityOptions(*profile, scale));
  if (!tt.ok()) return 1;
  auto index = BuildTtlIndex(*tt);
  if (!index.ok()) return 1;
  PtldbOptions options;
  options.device = DeviceProfile::SataSsd();
  auto db = PtldbDatabase::Build(*index, options);
  if (!db.ok()) return 1;
  Rng rng(1);
  const auto targets = rng.SampleDistinct(tt->num_stops(), 20);
  if (!(*db)->AddTargetSet("poi", *index, targets, 4).ok()) return 1;
  // Also build the paper's kNN tables (knn_naive, knn_ea, knn_ld), so the
  // shell can run the literal Codes 2-4 SQL too.
  if (!(*db)->AddPaperKnnTables("poi", *index).ok()) return 1;

  std::printf("PTLDB SQL shell on %s (scale %.2f): %u stops.\n", city.c_str(),
              scale, tt->num_stops());
  std::printf("Tables:");
  for (const auto& name : (*db)->engine()->table_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf(" ptldb_stats ptldb_server ptldb_slow_queries ptldb_traces");
  std::printf("\nExample: %s",
              "SELECT v, hubs[1:3] FROM lout WHERE v = 0;\n");
  std::printf("Observability: %s",
              "SELECT type, outcome, latency_ns FROM ptldb_slow_queries;\n");
  std::printf("Prefix a query with EXPLAIN ANALYZE for its span tree.\n");

  SqlInterpreter interpreter((*db)->engine());
  PtldbDatabase* pdb = db->get();
  SystemTableCatalog system_tables([pdb] { return pdb->Snapshot(); },
                                   pdb->query_log());
  interpreter.set_system_tables(&system_tables);
  const auto run = [&](const std::string& sql) {
    // Each statement is a recorded request: earlier statements show up in
    // ptldb_slow_queries / ptldb_traces with phase attribution, so the
    // shell demonstrates the self-describing loop on its own history.
    RequestRecorder recorder(pdb->query_log());
    if (recorder.active()) recorder.record().set_type("sql");
    auto result = interpreter.Execute(sql);
    if (recorder.active()) {
      const char* cause = nullptr;
      const QueryOutcome outcome =
          OutcomeForStatus(result.status(), &cause);
      recorder.Finish(outcome, cause);
    }
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return;
    }
    PrintRelation(*result);
  };

  if (!commands.empty()) {
    for (const auto& sql : commands) {
      std::printf("\n> %s\n", sql.c_str());
      run(sql);
    }
    return 0;
  }
  std::string line;
  std::printf("\nptldb> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (line == "\\q" || line == "quit" || line == "exit") break;
    if (!line.empty()) run(line);
    std::printf("ptldb> ");
    std::fflush(stdout);
  }
  return 0;
}
