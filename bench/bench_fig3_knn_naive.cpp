// Figure 3 of the paper: speedup of the optimized kNN queries (Code 3/4
// over the hour-bucketed tables, reading the first k condensed entries of
// each otm_ea/otm_ld row) over the naive ones (Code 2, one row per
// (hub, td)) for D = 0.01 and k in {1, 2, 4, 8, 16}. The paper reports
// 11-53x; the shape to reproduce is "optimized is an order of magnitude
// faster, for both EA and LD, across all datasets".
#include <cstdio>

#include "knn_bench.h"

using namespace ptldb;

int main(int argc, char** argv) {
  const BenchConfig config = ParseBenchArgs(argc, argv);
  std::printf(
      "# Figure 3: optimized vs naive kNN speedup (HDD, D=0.01, %u queries)\n\n",
      config.num_queries);
  PrintTableHeader({"Graph", "k", "EA naive (ms)", "EA opt (ms)",
                    "EA speedup", "LD naive (ms)", "LD opt (ms)",
                    "LD speedup"});
  for (const CityProfile* profile : SelectCities(config)) {
    auto data = LoadOrBuildDataset(*profile, config);
    if (!data.ok()) return 1;
    auto db = MakeBenchDb(*data, DeviceProfile::Hdd7200());
    if (!db.ok()) return 1;
    if (const auto s = AddFig34Sets(db->get(), *data, *profile, config.seed); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    // Registration builds only the otm_* tables; Code 2 reads knn_naive,
    // built on request.
    for (const char* set : {"d01k4", "d01k16"}) {
      if (const auto s = (*db)->AddPaperKnnTables(set, data->index); !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }
    Rng rng(config.seed * 31 + 5);
    // Naive queries scan large row ranges; cap their count to keep the
    // bench runtime sane (averages stabilize quickly).
    const uint32_t n_opt = config.num_queries;
    const uint32_t n_naive = std::min<uint32_t>(config.num_queries, 12);
    const KnnWorkload w = MakeKnnWorkload(&rng, data->tt, n_opt);

    for (const uint32_t k : {1u, 2u, 4u, 8u, 16u}) {
      const std::string set = SetForK(k);
      const double ea_opt = TimeQueries(db->get(), n_opt, [&](uint32_t i) {
        (void)(*db)->EaKnn(set, w.q[i], w.early[i], k);
      });
      const double ea_naive =
          TimeQueries(db->get(), n_naive, [&](uint32_t i) {
            (void)(*db)->EaKnnNaive(set, w.q[i], w.early[i], k);
          });
      const double ld_opt = TimeQueries(db->get(), n_opt, [&](uint32_t i) {
        (void)(*db)->LdKnn(set, w.q[i], w.late[i], k);
      });
      const double ld_naive =
          TimeQueries(db->get(), n_naive, [&](uint32_t i) {
            (void)(*db)->LdKnnNaive(set, w.q[i], w.late[i], k);
          });
      char kbuf[8], ea_s[16], ld_s[16];
      std::snprintf(kbuf, sizeof(kbuf), "%u", k);
      std::snprintf(ea_s, sizeof(ea_s), "%.1fx", ea_naive / ea_opt);
      std::snprintf(ld_s, sizeof(ld_s), "%.1fx", ld_naive / ld_opt);
      PrintTableRow({data->name, kbuf, Ms(ea_naive), Ms(ea_opt), ea_s,
                     Ms(ld_naive), Ms(ld_opt), ld_s});
    }
  }
  return 0;
}
