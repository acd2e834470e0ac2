// Table 7 of the paper: dataset statistics and TTL preprocessing cost for
// the 11 public-transportation networks (scaled synthetic equivalents; see
// DESIGN.md on the substitution). Paper values are printed alongside for
// shape comparison: |HL|/|V| in the hundreds-to-thousands, Madrid densest,
// preprocessing seconds growing with |V| x |E|.
//
// Preprocessing is measured twice per city — once serial (num_threads=1)
// and once with --threads workers (default: all hardware threads) — and the
// speedup is reported. The two builds produce byte-identical indexes (the
// wave-parallel construction is deterministic; ttl_determinism_test pins
// it), so the speedup column is a pure like-for-like comparison.
#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "ttl/builder.h"
#include "ttl/label_store.h"

using namespace ptldb;

int main(int argc, char** argv) {
  const BenchConfig config = ParseBenchArgs(argc, argv);
  const uint32_t par_threads = config.num_threads != 0
                                   ? config.num_threads
                                   : ThreadPool::DefaultThreadCount();
  BenchRunRecord record;
  record.bench = "bench_table7";
  record.git = GitDescribe();
  record.scale = config.scale;
  record.seed = config.seed;
  std::printf(
      "# Table 7: graph statistics and TTL preprocessing (scale %g, "
      "%u threads)\n\n",
      config.scale, par_threads);
  char par_col[48];
  std::snprintf(par_col, sizeof(par_col), "Par@%u (s)", par_threads);
  PrintTableHeader({"Graph", "|V|", "|E|", "Avg degr.", "|HL|/|V|",
                    "B/label", "Serial (s)", par_col, "Speedup",
                    "paper |HL|/|V|", "paper preproc (s)"});
  const char* paper_hl[] = {"1600", "1734", "2486", "1190", "2196", "2572",
                            "7230", "4370", "630", "775", "2987"};
  const char* paper_pp[] = {"11.3", "184.7", "54.4", "27.3", "72.6", "194.5",
                            "338.5", "353.6", "4.5", "179.1", "262.1"};
  for (const CityProfile* profile : SelectCities(config)) {
    auto data = LoadOrBuildDataset(*profile, config);
    if (!data.ok()) {
      std::fprintf(stderr, "%s: %s\n", profile->name,
                   data.status().ToString().c_str());
      return 1;
    }
    // Fresh timed builds for the serial-vs-parallel comparison (the cached
    // index above may have been built with any thread count).
    const auto timed_build = [&](uint32_t threads) -> double {
      TtlBuildOptions options;
      options.num_threads = threads;
      TtlBuildStats stats;
      auto index = BuildTtlIndex(data->tt, options, &stats);
      if (!index.ok()) {
        std::fprintf(stderr, "%s: %s\n", profile->name,
                     index.status().ToString().c_str());
        std::exit(1);
      }
      return stats.preprocess_seconds;
    };
    const double serial_s = timed_build(1);
    const double par_s = timed_build(par_threads);
    record.phases.push_back({data->name + ".ttl_build_serial", serial_s,
                             data->tt.num_stops(), serial_s * 1e3 /
                                 std::max<uint32_t>(data->tt.num_stops(), 1)});
    record.phases.push_back({data->name + ".ttl_build_parallel", par_s,
                             data->tt.num_stops(), par_s * 1e3 /
                                 std::max<uint32_t>(data->tt.num_stops(), 1)});
    // Label codec (ttl/label_store.h): bytes per label against the 12-byte raw
    // (hub, td, ta) triple, per city (label distributions differ, so the
    // compression ratio is a per-city statistic worth tracking).
    auto store = LabelStore::Build(data->index);
    if (!store.ok()) {
      std::fprintf(stderr, "%s: %s\n", profile->name,
                   store.status().ToString().c_str());
      return 1;
    }
    const uint64_t label_count = (*store)->total_labels();
    const double bytes_per_label =
        label_count > 0
            ? static_cast<double>((*store)->bytes_resident()) /
                  static_cast<double>(label_count)
            : 0.0;
    record.metrics.gauges[data->name + ".labels.compressed_bytes"] =
        static_cast<int64_t>((*store)->bytes_resident());
    record.metrics.gauges[data->name + ".labels.count"] =
        static_cast<int64_t>(label_count);
    size_t paper_idx = 0;
    for (size_t i = 0; i < kNumCityProfiles; ++i) {
      if (&kCityProfiles[i] == profile) paper_idx = i;
    }
    char v[32], e[32], deg[32], hl[32], bpl[32], ser[32], par[32], sp[32];
    std::snprintf(v, sizeof(v), "%u", data->tt.num_stops());
    std::snprintf(e, sizeof(e), "%u", data->tt.num_connections());
    std::snprintf(deg, sizeof(deg), "%.0f", data->tt.average_degree());
    std::snprintf(hl, sizeof(hl), "%.0f", data->index.tuples_per_vertex());
    std::snprintf(bpl, sizeof(bpl), "%.2f", bytes_per_label);
    std::snprintf(ser, sizeof(ser), "%.1f", serial_s);
    std::snprintf(par, sizeof(par), "%.1f", par_s);
    std::snprintf(sp, sizeof(sp), "%.2fx", par_s > 0 ? serial_s / par_s : 0.0);
    PrintTableRow({data->name, v, e, deg, hl, bpl, ser, par, sp,
                   paper_hl[paper_idx], paper_pp[paper_idx]});
  }
  std::printf(
      "\nNote: |V| and |E| scale linearly with --scale; |HL|/|V| and the\n"
      "preprocessing time are expected to track the paper's per-city shape\n"
      "(Madrid/Roma/Toronto largest labels; SaltLakeCity/Sweden smallest).\n"
      "The speedup column needs real cores to move: on a single-core\n"
      "machine it stays near 1x by construction.\n");
  if (!config.json_path.empty()) {
    const Status s = WriteBenchJson(record, config.json_path);
    if (!s.ok()) {
      std::fprintf(stderr, "--json: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench] wrote %s\n", config.json_path.c_str());
  }
  return 0;
}
