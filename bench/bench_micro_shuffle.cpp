// Micro-benchmarks for the MapReduce substrate's shuffle path: map-output
// partitioning + sort, combiner folding, the reducer's k-way run merge, and
// row codec throughput.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "core/aggregation.h"
#include "mapreduce/engine.h"
#include "mapreduce/shuffle.h"
#include "storage/row_codec.h"

namespace clydesdale {
namespace mr {
namespace {

std::vector<KeyValue> MakeRecords(int n, int distinct_keys) {
  Random rng(11);
  std::vector<KeyValue> records;
  records.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    records.push_back(
        {Row({Value(static_cast<int32_t>(rng.Uniform(0, distinct_keys - 1))),
              Value("group")}),
         Row({Value(int64_t{1})})});
  }
  return records;
}

TaskContext MakeContext(MrCluster* cluster, const JobConf* conf,
                        Counters* counters) {
  return TaskContext(conf, cluster, 0, 0, 1,
                     std::make_shared<SharedJvmState>(), counters);
}

void SortAndMaybeCombine(benchmark::State& state, bool combine) {
  SetLogThreshold(LogLevel::kError);
  static MrCluster* const cluster = new MrCluster(ClusterOptions{});
  JobConf conf;
  Counters counters;
  // Arg 0 = rows through the buffer, arg 1 = distinct keys (sort/combine
  // cardinality). Both matter independently: rows drive volume, keys drive
  // comparison cost and combiner fold ratio.
  const auto records = MakeRecords(static_cast<int>(state.range(0)),
                                   static_cast<int>(state.range(1)));
  for (auto _ : state) {
    ShardedCollector buffer(4);
    for (const KeyValue& kv : records) {
      CLY_CHECK_OK(buffer.Collect(kv.key, kv.value));
    }
    TaskContext context = MakeContext(cluster, &conf, &counters);
    core::AggReducer combiner(core::AggLayout::For(
        {{"n", Expr::Col("x"), core::AggKind::kSum}}));
    auto partitions = buffer.Finish(combine ? &combiner : nullptr, &context);
    CLY_CHECK(partitions.ok());
    benchmark::DoNotOptimize(partitions->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(records.size()));
}

void BM_MapOutputSort(benchmark::State& state) {
  SortAndMaybeCombine(state, false);
}
void BM_MapOutputSortCombine(benchmark::State& state) {
  SortAndMaybeCombine(state, true);
}
BENCHMARK(BM_MapOutputSort)
    ->Args({1000, 64})
    ->Args({100000, 64})
    ->Args({100000, 100000})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MapOutputSortCombine)
    ->Args({1000, 64})
    ->Args({100000, 64})
    ->Args({100000, 100000})
    ->Unit(benchmark::kMillisecond);

// One reducer's merge of R sorted runs holding N records in all (arg 0 = R).
// N is fixed, so the time per record shows how the merge scales with R.
void BM_ReduceMerge(benchmark::State& state) {
  constexpr int kTotalRecords = 100000;
  const int num_runs = static_cast<int>(state.range(0));
  auto records = MakeRecords(kTotalRecords, kTotalRecords);
  std::vector<ShuffleRun> runs(static_cast<size_t>(num_runs));
  for (size_t i = 0; i < records.size(); ++i) {
    const size_t r = i % runs.size();
    runs[r].map_task = static_cast<int>(r);
    runs[r].records.push_back(std::move(records[i]));
  }
  for (ShuffleRun& run : runs) {
    std::stable_sort(run.records.begin(), run.records.end(),
                     [](const KeyValue& a, const KeyValue& b) {
                       return a.key.Compare(b.key) < 0;
                     });
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ShuffleRun> copy = runs;
    state.ResumeTiming();
    ShuffleMerger merger;
    merger.Add(std::move(copy));
    auto merged = merger.Take();
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetItemsProcessed(state.iterations() * kTotalRecords);
}
BENCHMARK(BM_ReduceMerge)->Arg(4)->Arg(64)->Arg(512)->Unit(
    benchmark::kMillisecond);

void BM_RowEncodeDecode(benchmark::State& state) {
  auto schema = Schema::Make({{"a", TypeKind::kInt32, 4},
                              {"b", TypeKind::kInt64, 8},
                              {"c", TypeKind::kString, 12}});
  const Row row({Value(int32_t{42}), Value(int64_t{1} << 40),
                 Value("hello row")});
  storage::ByteWriter writer;
  Row decoded;
  for (auto _ : state) {
    writer.Clear();
    storage::EncodeRow(row, &writer);
    storage::ByteReader reader(writer.bytes());
    CLY_CHECK_OK(storage::DecodeRow(*schema, &reader, &decoded));
    benchmark::DoNotOptimize(decoded.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RowEncodeDecode);

void BM_TextParse(benchmark::State& state) {
  auto schema = Schema::Make({{"a", TypeKind::kInt32, 4},
                              {"b", TypeKind::kInt64, 8},
                              {"c", TypeKind::kString, 12}});
  const std::string line = "42|1099511627776|hello row";
  Row decoded;
  for (auto _ : state) {
    CLY_CHECK_OK(storage::ParseRowText(*schema, line, &decoded));
    benchmark::DoNotOptimize(decoded.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TextParse);

}  // namespace
}  // namespace mr
}  // namespace clydesdale
