// Design-choice ablations at the functional level (DESIGN.md §6): the
// engine's own knobs measured end-to-end on the in-process cluster —
// map-side aggregation vs per-row emit + combiner (shuffle volume),
// multi-split packing granularity, and the §5.1 staged-join fallback vs the
// single-job plan.

#include <benchmark/benchmark.h>

#include "common/logging.h"
#include "core/clydesdale.h"
#include "core/staged_join.h"
#include "ssb/loader.h"
#include "ssb/queries.h"

namespace clydesdale {
namespace {

struct Env {
  Env() {
    SetLogThreshold(LogLevel::kError);
    mr::ClusterOptions copts;
    copts.num_nodes = 4;
    copts.map_slots_per_node = 2;
    copts.dfs_block_size = 256 * 1024;
    cluster = std::make_unique<mr::MrCluster>(copts);
    ssb::SsbLoadOptions load;
    load.scale_factor = 0.01;
    auto loaded = ssb::LoadSsb(cluster.get(), load);
    CLY_CHECK(loaded.ok());
    dataset = std::make_unique<ssb::SsbDataset>(std::move(*loaded));
  }
  std::unique_ptr<mr::MrCluster> cluster;
  std::unique_ptr<ssb::SsbDataset> dataset;
};

Env& SharedEnv() {
  static Env* const kEnv = new Env();
  return *kEnv;
}

void RunQuery(benchmark::State& state, const core::ClydesdaleOptions& options,
              const char* query_id) {
  Env& env = SharedEnv();
  auto spec = ssb::QueryById(query_id);
  CLY_CHECK(spec.ok());
  core::ClydesdaleEngine engine(env.cluster.get(), env.dataset->star, options);
  uint64_t shuffle = 0;
  for (auto _ : state) {
    auto result = engine.Execute(*spec);
    CLY_CHECK(result.ok());
    benchmark::DoNotOptimize(result->rows.size());
    for (const auto& report : result->stage_reports) {
      shuffle += report.TotalShuffleBytes();
    }
  }
  state.counters["shuffle_bytes"] =
      static_cast<double>(shuffle) / state.iterations();
}

void BM_Q31_MapSideAgg(benchmark::State& state) {
  RunQuery(state, {}, "Q3.1");
}
void BM_Q31_CombinerOnly(benchmark::State& state) {
  core::ClydesdaleOptions options;
  options.map_side_agg = false;  // emit per joined row; combine pre-shuffle
  RunQuery(state, options, "Q3.1");
}
BENCHMARK(BM_Q31_MapSideAgg)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q31_CombinerOnly)->Unit(benchmark::kMillisecond);

void BM_Q41_SingleJob(benchmark::State& state) {
  RunQuery(state, {}, "Q4.1");
}
void BM_Q41_StagedFallback(benchmark::State& state) {
  Env& env = SharedEnv();
  auto spec = ssb::QueryById("Q4.1");
  CLY_CHECK(spec.ok());
  // Budget that fits each dimension alone: one join group per dimension,
  // four MR jobs with HDFS round-trips between them.
  uint64_t max_single = 0;
  for (const core::DimJoinSpec& join : spec->dims) {
    auto dim = env.dataset->star.dim(join.dimension);
    CLY_CHECK(dim.ok());
    max_single = std::max(max_single,
                          core::EstimateDimHashBytes(**dim, join));
  }
  core::ClydesdaleOptions options;
  options.max_hash_memory_bytes = max_single;
  auto star = std::make_shared<const core::StarSchema>(env.dataset->star);
  for (auto _ : state) {
    auto result = core::ExecuteStagedStarJoin(env.cluster.get(), star, *spec,
                                              options);
    CLY_CHECK(result.ok());
    benchmark::DoNotOptimize(result->rows.size());
  }
}
BENCHMARK(BM_Q41_SingleJob)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Q41_StagedFallback)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace clydesdale
