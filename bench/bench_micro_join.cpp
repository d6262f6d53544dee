// Micro-benchmarks for the join primitives: dimension hash-table build and
// probe (vs std::unordered_map as a baseline), and the block-iteration
// probe loop vs row-at-a-time (§5.3's ablation at the functional level).

#include <benchmark/benchmark.h>

#include <unordered_map>

#include "common/logging.h"
#include "common/random.h"
#include "core/dim_hash_table.h"
#include "storage/cif.h"

namespace clydesdale {
namespace {

SchemaPtr DimSchema() {
  return Schema::Make({{"pk", TypeKind::kInt32, 4},
                       {"nation", TypeKind::kString, 12},
                       {"region", TypeKind::kString, 9}});
}

/// A column image (the replica format) of `entries` dimension rows.
std::vector<uint8_t> DimImage(int entries) {
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(entries));
  for (int i = 1; i <= entries; ++i) {
    rows.push_back(Row({Value(int32_t{i}),
                        Value(std::string("nation") + std::to_string(i % 25)),
                        Value(i % 2 == 0 ? "ASIA" : "EUROPE")}));
  }
  return storage::EncodeColumnImage(DimSchema(), rows);
}

void BM_DimHashBuild(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  const auto image = DimImage(entries);
  const auto schema = DimSchema();
  for (auto _ : state) {
    auto table = core::DimHashTable::Build(*schema, image.data(),
                                           image.size(), *Predicate::True(),
                                           "pk", {"nation"});
    CLY_CHECK(table.ok());
    benchmark::DoNotOptimize((*table)->entries());
  }
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK(BM_DimHashBuild)->Arg(2000)->Arg(30000)->Arg(200000);

SchemaPtr PartSchema() {
  return Schema::Make(
      {{"p_partkey", TypeKind::kInt32, 4}, {"p_name", TypeKind::kString, 22},
       {"p_mfgr", TypeKind::kString, 6},   {"p_category", TypeKind::kString, 7},
       {"p_brand1", TypeKind::kString, 9}, {"p_color", TypeKind::kString, 6},
       {"p_type", TypeKind::kString, 21},  {"p_size", TypeKind::kInt32, 4},
       {"p_container", TypeKind::kString, 6}});
}

/// SSB `part` at SF 1 (200k rows, 9 columns, 7 of them strings) as a column
/// image: p_mfgr and p_category are dictionaries; p_brand1, with 1,000
/// values, stays plain strings.
std::vector<uint8_t> PartImage(int entries) {
  Random rng(11);
  const char* colors[] = {"almond", "blue", "coral", "khaki", "navy"};
  std::vector<Row> rows;
  rows.reserve(static_cast<size_t>(entries));
  for (int i = 1; i <= entries; ++i) {
    const int mfgr = static_cast<int>(rng.Uniform(1, 5));
    const int category = static_cast<int>(rng.Uniform(1, 5));
    const int brand = static_cast<int>(rng.Uniform(1, 40));
    const std::string cat =
        "MFGR#" + std::to_string(mfgr) + std::to_string(category);
    rows.push_back(Row({Value(int32_t{i}),
                        Value("part name " + std::to_string(i * 7919 % 100003)),
                        Value("MFGR#" + std::to_string(mfgr)), Value(cat),
                        Value(cat + std::to_string(brand)),
                        Value(colors[i % 5]),
                        Value("STANDARD POLISHED TIN"),
                        Value(static_cast<int32_t>(rng.Uniform(1, 50))),
                        Value("SM BOX")}));
  }
  return storage::EncodeColumnImage(PartSchema(), rows);
}

/// Part builds as the SSB queries run them. Q2.1: one string predicate and
/// one string aux column; 1 row in 25 qualifies. Q4.1: p_mfgr IN
/// ('MFGR#1','MFGR#2') with aux p_category; 2 rows in 5 qualify. Either way
/// most of the row is never read.
void BM_DimHashBuildPartShaped(benchmark::State& state,
                               const Predicate::Ptr& pred,
                               const std::string& aux) {
  const int entries = static_cast<int>(state.range(0));
  const auto image = PartImage(entries);
  const auto schema = PartSchema();
  for (auto _ : state) {
    auto table = core::DimHashTable::Build(*schema, image.data(), image.size(),
                                           *pred, "p_partkey", {aux});
    CLY_CHECK(table.ok());
    benchmark::DoNotOptimize((*table)->entries());
  }
  state.SetItemsProcessed(state.iterations() * entries);
}
BENCHMARK_CAPTURE(BM_DimHashBuildPartShaped, Q21,
                  Predicate::Eq("p_category", Value("MFGR#12")), "p_brand1")
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DimHashBuildPartShaped, Q41,
                  Predicate::In("p_mfgr", {Value("MFGR#1"), Value("MFGR#2")}),
                  "p_category")
    ->Arg(200000)
    ->Unit(benchmark::kMillisecond);

void BM_DimHashProbe(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  const auto image = DimImage(entries);
  const auto schema = DimSchema();
  auto table = core::DimHashTable::Build(*schema, image.data(), image.size(),
                                         *Predicate::True(), "pk", {"nation"});
  CLY_CHECK(table.ok());
  Random rng(7);
  uint64_t hits = 0;
  for (auto _ : state) {
    // Half the probes miss, as in a selective star join.
    const int64_t key = rng.Uniform(1, entries * 2);
    hits += (*table)->Probe(key) != core::DimHashTable::kMiss ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DimHashProbe)->Arg(2000)->Arg(30000)->Arg(200000);

void BM_StdUnorderedMapProbe(benchmark::State& state) {
  const int entries = static_cast<int>(state.range(0));
  std::unordered_map<int64_t, Row> map;
  for (int i = 1; i <= entries; ++i) {
    map.emplace(i, Row({Value("payload")}));
  }
  Random rng(7);
  uint64_t hits = 0;
  for (auto _ : state) {
    const int64_t key = rng.Uniform(1, entries * 2);
    hits += map.find(key) != map.end() ? 1 : 0;
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdUnorderedMapProbe)->Arg(2000)->Arg(30000)->Arg(200000);

// --- block iteration vs row-at-a-time over an in-memory batch ----------------

RowBatch FactBatch(int64_t rows) {
  auto schema = Schema::Make({{"fk", TypeKind::kInt32, 4},
                              {"measure", TypeKind::kInt32, 4}});
  RowBatch batch(schema);
  Random rng(3);
  for (int64_t i = 0; i < rows; ++i) {
    batch.mutable_column(0)->AppendInt32(
        static_cast<int32_t>(rng.Uniform(1, 30000)));
    batch.mutable_column(1)->AppendInt32(
        static_cast<int32_t>(rng.Uniform(1, 1000)));
  }
  CLY_CHECK_OK(batch.SealRowCount());
  return batch;
}

void BM_ProbeRowAtATime(benchmark::State& state) {
  const auto image = DimImage(30000);
  const auto schema = DimSchema();
  auto table = core::DimHashTable::Build(*schema, image.data(), image.size(),
                                         *Predicate::Eq("region", Value("ASIA")),
                                         "pk", {"nation"});
  CLY_CHECK(table.ok());
  const RowBatch batch = FactBatch(100000);
  for (auto _ : state) {
    int64_t sum = 0;
    // Materialize each row (the per-record hand-off of a Volcano-style loop).
    for (int64_t i = 0; i < batch.num_rows(); ++i) {
      const Row row = batch.GetRow(i);
      const int32_t slot = (*table)->Probe(row.Get(0).AsInt64());
      if (slot != core::DimHashTable::kMiss) sum += row.Get(1).i32();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch.num_rows());
}
BENCHMARK(BM_ProbeRowAtATime)->Unit(benchmark::kMillisecond);

void BM_ProbeBlockIteration(benchmark::State& state) {
  const auto image = DimImage(30000);
  const auto schema = DimSchema();
  auto table = core::DimHashTable::Build(*schema, image.data(), image.size(),
                                         *Predicate::Eq("region", Value("ASIA")),
                                         "pk", {"nation"});
  CLY_CHECK(table.ok());
  const RowBatch batch = FactBatch(100000);
  const auto& fks = batch.column(0).i32();
  const auto& measures = batch.column(1).i32();
  for (auto _ : state) {
    int64_t sum = 0;
    // Tight columnar loop: no per-row materialization (B-CIF, §5.3).
    for (size_t i = 0; i < fks.size(); ++i) {
      const int32_t slot = (*table)->Probe(fks[i]);
      if (slot != core::DimHashTable::kMiss) sum += measures[i];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * batch.num_rows());
}
BENCHMARK(BM_ProbeBlockIteration)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace clydesdale
