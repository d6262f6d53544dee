// Reproduces the paper's §6.3 stage-by-stage breakdown of query 2.1 on
// Cluster A at SF1000: Clydesdale (~215 s total: ~27 s hash build, ~164 s
// probe at ~67 MB/s, <10 s sort) versus Hive's five-stage mapjoin plan
// (~15,142 s) and repartition plan (~17,700 s).

#include <cstdio>

#include "bench_common.h"

using namespace clydesdale;        // NOLINT(build/namespaces)
using namespace clydesdale::bench; // NOLINT(build/namespaces)

namespace {

void PrintOutcome(const char* label, const sim::SimOutcome& outcome) {
  std::printf("%s: %.0f s total\n", label, outcome.seconds);
  for (const sim::StageResult& stage : outcome.stages) {
    std::printf("  %-28s %8.0f s   (%d tasks, avg task %.1f s)\n",
                stage.name.c_str(), stage.seconds, stage.num_tasks,
                stage.avg_task_s);
  }
  if (outcome.oom) std::printf("  OOM: %s\n", outcome.oom_detail.c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  BenchEnv env = LoadBenchEnv();
  const sim::ClusterSpec spec = sim::ClusterSpec::ClusterA();
  sim::ModelOptions options;
  options.target_sf = TargetScaleFactor();

  auto query = ssb::QueryById("Q2.1");
  CLY_CHECK(query.ok());
  auto m = sim::MeasureQuery(env.cluster.get(), env.dataset, *query);
  CLY_CHECK(m.ok());

  std::printf("Query 2.1 breakdown on Cluster A at SF%.0f (paper §6.3)\n\n",
              options.target_sf);
  std::printf(
      "measured widths: %.1f B/row projected CIF (paper task read 10.8 GB "
      "per node), %.1f B/row full CIF, %.1f B/row RCFile\n\n",
      m->cif_projected_width, m->cif_full_width, m->rcfile_full_width);

  auto cly = sim::ModelClydesdale(spec, *m, options);
  CLY_CHECK(cly.ok());
  PrintOutcome("Clydesdale (paper: 215 s; 27 s build + 164 s probe)", *cly);

  auto mj = sim::ModelHive(spec, *m, hive::JoinStrategy::kMapJoin, options);
  CLY_CHECK(mj.ok());
  PrintOutcome(
      "Hive mapjoin (paper: 15,142 s; stages 2640 / 2040 / 9180 / 720 / 19)",
      *mj);

  auto rp = sim::ModelHive(spec, *m, hive::JoinStrategy::kRepartition,
                           options);
  CLY_CHECK(rp.ok());
  PrintOutcome(
      "Hive repartition (paper: 17,700 s; stages 9720 / 7140 / 420 + agg)",
      *rp);

  std::printf("speedups: %.0fx over mapjoin, %.0fx over repartition "
              "(paper: ~70x, ~82x)\n",
              mj->seconds / cly->seconds, rp->seconds / cly->seconds);
  return 0;
}
