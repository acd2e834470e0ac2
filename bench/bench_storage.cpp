// Section 4.3 of the paper (memory requirements): total table + index
// footprint for all datasets, including the knn_naive/knn/otm tables for
// every value of D and kmax in {4, 16} — the paper reports < 12 GB at full
// scale.
// Also reports the dummy-tuple fraction (claimed < 10% at full scale).
#include <cstdio>

#include "knn_bench.h"
#include "ptldb/tables.h"

using namespace ptldb;

int main(int argc, char** argv) {
  const BenchConfig config = ParseBenchArgs(argc, argv);
  const double densities[] = {0.001, 0.005, 0.01, 0.05, 0.1};
  std::printf("# Section 4.3: storage footprint (scale %g)\n\n", config.scale);
  PrintTableHeader({"Graph", "labels (MiB)", "knn+otm all D (MiB)",
                    "total (MiB)", "KiB/stop", "dummy frac"});
  double grand_total = 0;
  for (const CityProfile* profile : SelectCities(config)) {
    auto data = LoadOrBuildDataset(*profile, config);
    if (!data.ok()) return 1;
    auto db = MakeBenchDb(*data, DeviceProfile::Ram());
    if (!db.ok()) return 1;
    const double label_bytes = static_cast<double>((*db)->size_bytes());

    Rng rng(config.seed * 104729 + 7);
    for (int d = 0; d < 5; ++d) {
      const auto targets = MakeTargets(&rng, data->tt, *profile, densities[d]);
      char set4[16], set16[16];
      std::snprintf(set4, sizeof(set4), "d%dk4", d);
      std::snprintf(set16, sizeof(set16), "d%dk16", d);
      if (!(*db)->AddTargetSet(set4, data->index, targets, 4).ok()) return 1;
      if (!(*db)->AddTargetSet(set16, data->index, targets, 16).ok()) {
        return 1;
      }
      // Section 4.3 counts all five derived tables of the paper's schema;
      // the three kNN ones are built only on request.
      if (!(*db)->AddPaperKnnTables(set4, data->index).ok() ||
          !(*db)->AddPaperKnnTables(set16, data->index).ok()) {
        return 1;
      }
    }
    const double total_bytes = static_cast<double>((*db)->size_bytes());
    grand_total += total_bytes;
    const double dummy_fraction =
        static_cast<double>(2 * data->dummy_tuples) /
        static_cast<double>(data->out_tuples + data->in_tuples +
                            2 * data->dummy_tuples);
    char labels[32], derived[32], total[32], per_stop[32], dummy[32];
    std::snprintf(labels, sizeof(labels), "%.1f", label_bytes / 1048576.0);
    std::snprintf(derived, sizeof(derived), "%.1f",
                  (total_bytes - label_bytes) / 1048576.0);
    std::snprintf(total, sizeof(total), "%.1f", total_bytes / 1048576.0);
    std::snprintf(per_stop, sizeof(per_stop), "%.0f",
                  total_bytes / 1024.0 / data->tt.num_stops());
    std::snprintf(dummy, sizeof(dummy), "%.1f%%", 100.0 * dummy_fraction);
    PrintTableRow({data->name, labels, derived, total, per_stop, dummy});
  }
  std::printf("\nGrand total: %.1f MiB at scale %g (the paper reports "
              "< 12 GB at full scale).\n",
              grand_total / 1048576.0, config.scale);
  return 0;
}
