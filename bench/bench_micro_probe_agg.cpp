// Isolates the star-join map task's scan→filter→probe→aggregate inner loop
// on three SSB query shapes — Q1.1 (filter-heavy, no group key), Q2.1 (int
// group key), Q4.x (string group key) — comparing the pre-vectorization
// baseline (per-row probe, Row group keys, unordered_map aggregator) against
// the production VectorizedProbe + flat HashAggregator pipeline. The
// reported items/sec is fact rows through the pipeline.

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/aggregation.h"
#include "core/dim_hash_table.h"
#include "core/star_query.h"
#include "core/vector_probe.h"
#include "schema/expr.h"
#include "schema/row_batch.h"
#include "storage/cif.h"

namespace clydesdale {
namespace {

constexpr int64_t kBatchRows = 4096;   // production ClydesdaleOptions default
constexpr int64_t kFactRows = 64 * kBatchRows;

/// One benchmark scenario: a fact table pre-split into production-sized
/// batches plus everything the probe loop needs (bound predicate, dimension
/// tables, group sources, bound accumulator expressions).
struct Shape {
  SchemaPtr fact_schema;
  std::vector<RowBatch> batches;
  BoundPredicatePtr pred;
  std::vector<std::shared_ptr<const core::DimHashTable>> tables;
  std::vector<int> fk_index;
  std::vector<core::GroupSource> group_sources;
  std::vector<BoundScalarPtr> acc_exprs;  // null entry = COUNT's constant 1
  core::AggLayout layout = core::AggLayout::For({});

  core::VectorizedProbe MakeProbe() const {
    std::vector<const core::DimHashTable*> raw;
    for (const auto& t : tables) raw.push_back(t.get());
    std::vector<const BoundScalar*> accs;
    for (const auto& e : acc_exprs) accs.push_back(e.get());
    return core::VectorizedProbe(pred.get(), fk_index, std::move(raw),
                                 group_sources, std::move(accs));
  }
};

std::shared_ptr<const core::DimHashTable> BuildDim(
    const SchemaPtr& schema, const std::vector<Row>& rows,
    const Predicate& pred, const std::string& pk,
    const std::vector<std::string>& aux) {
  const std::vector<uint8_t> image = storage::EncodeColumnImage(schema, rows);
  auto table = core::DimHashTable::Build(*schema, image.data(), image.size(),
                                         pred, pk, aux);
  CLY_CHECK(table.ok());
  return *table;
}

/// Date dimension: 2556 days across 7 years, aux d_year.
std::shared_ptr<const core::DimHashTable> DateDim(const Predicate& pred,
                                                  std::vector<std::string> aux) {
  auto schema = Schema::Make({{"d_datekey", TypeKind::kInt32, 4},
                              {"d_year", TypeKind::kInt32, 4}});
  std::vector<Row> rows;
  for (int i = 0; i < 2556; ++i) {
    rows.push_back(Row({Value(int32_t{19920101 + i}),
                        Value(int32_t{1992 + i / 366})}));
  }
  return BuildDim(schema, rows, pred, "d_datekey", std::move(aux));
}

/// Generic integer-keyed dimension with a string attribute cycling over
/// `cardinality` distinct values ("attr0".."attrN").
std::shared_ptr<const core::DimHashTable> AttrDim(
    int entries, int cardinality, const Predicate& pred,
    std::vector<std::string> aux) {
  auto schema = Schema::Make({{"pk", TypeKind::kInt32, 4},
                              {"attr", TypeKind::kString, 10},
                              {"bucket", TypeKind::kInt32, 4}});
  std::vector<Row> rows;
  for (int i = 1; i <= entries; ++i) {
    rows.push_back(Row({Value(int32_t{i}),
                        Value(std::string("attr") +
                              std::to_string(i % cardinality)),
                        Value(int32_t{i % 5})}));
  }
  return BuildDim(schema, rows, pred, "pk", std::move(aux));
}

std::vector<RowBatch> SplitIntoBatches(const SchemaPtr& schema,
                                       const std::vector<std::vector<int32_t>>& cols) {
  std::vector<RowBatch> batches;
  for (int64_t start = 0; start < kFactRows; start += kBatchRows) {
    RowBatch batch(schema);
    for (size_t c = 0; c < cols.size(); ++c) {
      for (int64_t i = start; i < start + kBatchRows; ++i) {
        batch.mutable_column(static_cast<int>(c))
            ->AppendInt32(cols[c][static_cast<size_t>(i)]);
      }
    }
    CLY_CHECK_OK(batch.SealRowCount());
    batches.push_back(std::move(batch));
  }
  return batches;
}

/// Q1.1 shape: selective fact predicate, one filtered date join (filter-only,
/// no aux), SUM(extendedprice * discount), no group key.
Shape MakeQ11Shape() {
  Shape s;
  s.fact_schema = Schema::Make({{"lo_orderdate", TypeKind::kInt32, 4},
                                {"lo_quantity", TypeKind::kInt32, 4},
                                {"lo_discount", TypeKind::kInt32, 4},
                                {"lo_extendedprice", TypeKind::kInt32, 4}});
  Random rng(11);
  std::vector<std::vector<int32_t>> cols(4);
  for (int64_t i = 0; i < kFactRows; ++i) {
    cols[0].push_back(static_cast<int32_t>(19920101 + rng.Uniform(0, 2555)));
    cols[1].push_back(static_cast<int32_t>(rng.Uniform(1, 50)));
    cols[2].push_back(static_cast<int32_t>(rng.Uniform(0, 10)));
    cols[3].push_back(static_cast<int32_t>(rng.Uniform(100, 100000)));
  }
  s.batches = SplitIntoBatches(s.fact_schema, cols);

  auto pred = Predicate::And({Predicate::Between("lo_discount", Value(int32_t{1}),
                                                 Value(int32_t{3})),
                              Predicate::Lt("lo_quantity", Value(int32_t{25}))});
  auto bound = pred->Bind(*s.fact_schema);
  CLY_CHECK(bound.ok());
  s.pred = std::move(*bound);

  s.tables.push_back(
      DateDim(*Predicate::Eq("d_year", Value(int32_t{1993})), {}));
  s.fk_index = {0};

  auto expr = Expr::Mul(Expr::Col("lo_extendedprice"), Expr::Col("lo_discount"));
  auto acc = expr->Bind(*s.fact_schema);
  CLY_CHECK(acc.ok());
  s.acc_exprs.push_back(std::move(*acc));
  s.layout = core::AggLayout::For(
      {{"revenue", Expr::Col("lo_extendedprice"), core::AggKind::kSum}});
  return s;
}

/// Q2.1 shape: no fact predicate, three joins (two filtered), SUM(revenue)
/// grouped by the int d_year aux column.
Shape MakeQ21Shape() {
  Shape s;
  s.fact_schema = Schema::Make({{"lo_partkey", TypeKind::kInt32, 4},
                                {"lo_suppkey", TypeKind::kInt32, 4},
                                {"lo_orderdate", TypeKind::kInt32, 4},
                                {"lo_revenue", TypeKind::kInt32, 4}});
  Random rng(21);
  std::vector<std::vector<int32_t>> cols(4);
  for (int64_t i = 0; i < kFactRows; ++i) {
    cols[0].push_back(static_cast<int32_t>(rng.Uniform(1, 20000)));
    cols[1].push_back(static_cast<int32_t>(rng.Uniform(1, 2000)));
    cols[2].push_back(static_cast<int32_t>(19920101 + rng.Uniform(0, 2555)));
    cols[3].push_back(static_cast<int32_t>(rng.Uniform(100, 100000)));
  }
  s.batches = SplitIntoBatches(s.fact_schema, cols);

  auto bound = Predicate::True()->Bind(*s.fact_schema);
  CLY_CHECK(bound.ok());
  s.pred = std::move(*bound);

  // part filtered to 1/5 of buckets, supplier to 1/5, date unfiltered.
  s.tables.push_back(
      AttrDim(20000, 25, *Predicate::Eq("bucket", Value(int32_t{2})), {}));
  s.tables.push_back(
      AttrDim(2000, 25, *Predicate::Eq("bucket", Value(int32_t{1})), {}));
  s.tables.push_back(DateDim(*Predicate::True(), {"d_year"}));
  s.fk_index = {0, 1, 2};
  s.group_sources.push_back(core::GroupSource{false, 2, 0, 0});  // d_year

  auto acc = Expr::Col("lo_revenue")->Bind(*s.fact_schema);
  CLY_CHECK(acc.ok());
  s.acc_exprs.push_back(std::move(*acc));
  s.layout = core::AggLayout::For(
      {{"revenue", Expr::Col("lo_revenue"), core::AggKind::kSum}});
  return s;
}

/// Q4.x shape: two filtered joins plus date, SUM(revenue - supplycost)
/// grouped by (d_year, c_nation) — a string in the group key.
Shape MakeQ4Shape() {
  Shape s;
  s.fact_schema = Schema::Make({{"lo_custkey", TypeKind::kInt32, 4},
                                {"lo_suppkey", TypeKind::kInt32, 4},
                                {"lo_orderdate", TypeKind::kInt32, 4},
                                {"lo_revenue", TypeKind::kInt32, 4},
                                {"lo_supplycost", TypeKind::kInt32, 4}});
  Random rng(44);
  std::vector<std::vector<int32_t>> cols(5);
  for (int64_t i = 0; i < kFactRows; ++i) {
    cols[0].push_back(static_cast<int32_t>(rng.Uniform(1, 30000)));
    cols[1].push_back(static_cast<int32_t>(rng.Uniform(1, 2000)));
    cols[2].push_back(static_cast<int32_t>(19920101 + rng.Uniform(0, 2555)));
    cols[3].push_back(static_cast<int32_t>(rng.Uniform(100, 100000)));
    cols[4].push_back(static_cast<int32_t>(rng.Uniform(50, 60000)));
  }
  s.batches = SplitIntoBatches(s.fact_schema, cols);

  auto bound = Predicate::True()->Bind(*s.fact_schema);
  CLY_CHECK(bound.ok());
  s.pred = std::move(*bound);

  // customer filtered to 1/5 with 25 nations, supplier filtered to 1/5.
  s.tables.push_back(
      AttrDim(30000, 25, *Predicate::Eq("bucket", Value(int32_t{3})),
              {"attr"}));
  s.tables.push_back(
      AttrDim(2000, 25, *Predicate::Eq("bucket", Value(int32_t{1})), {}));
  s.tables.push_back(DateDim(*Predicate::True(), {"d_year"}));
  s.fk_index = {0, 1, 2};
  s.group_sources.push_back(core::GroupSource{false, 2, 0, 0});  // d_year
  s.group_sources.push_back(core::GroupSource{false, 0, 0, 0});  // c_nation

  auto expr = Expr::Sub(Expr::Col("lo_revenue"), Expr::Col("lo_supplycost"));
  auto acc = expr->Bind(*s.fact_schema);
  CLY_CHECK(acc.ok());
  s.acc_exprs.push_back(std::move(*acc));
  s.layout = core::AggLayout::For(
      {{"profit", Expr::Col("lo_revenue"), core::AggKind::kSum}});
  return s;
}

/// The pre-vectorization inner loop: byte-mask predicate, then per-row
/// scalar probes, Row materialization for survivors, Row group keys (one
/// Value per payload column read) into an unordered_map aggregator.
uint64_t RunBaseline(const Shape& s) {
  std::unordered_map<Row, std::vector<int64_t>, RowHasher> groups;
  std::vector<uint8_t> sel;
  std::vector<int32_t> matched(s.tables.size());
  uint64_t join_rows = 0;
  for (const RowBatch& batch : s.batches) {
    const int64_t n = batch.num_rows();
    sel.assign(static_cast<size_t>(n), 1);
    s.pred->EvalBatch(batch, &sel);
    for (int64_t i = 0; i < n; ++i) {
      if (sel[static_cast<size_t>(i)] == 0) continue;
      bool ok = true;
      for (size_t d = 0; d < s.tables.size(); ++d) {
        matched[d] =
            s.tables[d]->Probe(batch.column(s.fk_index[d]).KeyAt(i));
        if (matched[d] == core::DimHashTable::kMiss) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      ++join_rows;
      const Row row = batch.GetRow(i);
      Row group_key;
      group_key.Reserve(static_cast<int>(s.group_sources.size()));
      for (const core::GroupSource& src : s.group_sources) {
        group_key.Append(
            src.from_fact
                ? row.Get(src.fact_index)
                : s.tables[static_cast<size_t>(src.dim_index)]
                      ->aux_column(src.aux_index)
                      .GetValue(matched[static_cast<size_t>(src.dim_index)]));
      }
      int64_t values[16];
      for (size_t a = 0; a < s.acc_exprs.size(); ++a) {
        values[a] = s.acc_exprs[a] == nullptr
                        ? 1
                        : s.acc_exprs[a]->Eval(row).AsInt64();
      }
      auto [it, inserted] = groups.try_emplace(
          group_key,
          std::vector<int64_t>(
              static_cast<size_t>(s.layout.num_accumulators()),
              core::AggLayout::InitValue(core::AccKind::kSum)));
      s.layout.Merge(it->second.data(), values);
    }
  }
  benchmark::DoNotOptimize(groups);
  return join_rows;
}

uint64_t RunVectorized(const Shape& s, core::VectorizedProbe* probe) {
  core::HashAggregator agg(s.layout);
  for (const RowBatch& batch : s.batches) {
    CLY_CHECK_OK(probe->ProcessBatchAgg(batch, &agg));
  }
  benchmark::DoNotOptimize(agg.num_groups());
  return agg.num_groups();
}

void RunBaselineBench(benchmark::State& state, const Shape& s) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunBaseline(s));
  }
  state.SetItemsProcessed(state.iterations() * kFactRows);
}

void RunVectorizedBench(benchmark::State& state, const Shape& s) {
  core::VectorizedProbe probe = s.MakeProbe();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunVectorized(s, &probe));
  }
  state.SetItemsProcessed(state.iterations() * kFactRows);
}

void BM_ProbeAggBaseline_Q11NoGroup(benchmark::State& state) {
  static const Shape* s = new Shape(MakeQ11Shape());
  RunBaselineBench(state, *s);
}
BENCHMARK(BM_ProbeAggBaseline_Q11NoGroup)->Unit(benchmark::kMillisecond);

void BM_ProbeAggVectorized_Q11NoGroup(benchmark::State& state) {
  static const Shape* s = new Shape(MakeQ11Shape());
  RunVectorizedBench(state, *s);
}
BENCHMARK(BM_ProbeAggVectorized_Q11NoGroup)->Unit(benchmark::kMillisecond);

void BM_ProbeAggBaseline_Q21IntGroup(benchmark::State& state) {
  static const Shape* s = new Shape(MakeQ21Shape());
  RunBaselineBench(state, *s);
}
BENCHMARK(BM_ProbeAggBaseline_Q21IntGroup)->Unit(benchmark::kMillisecond);

void BM_ProbeAggVectorized_Q21IntGroup(benchmark::State& state) {
  static const Shape* s = new Shape(MakeQ21Shape());
  RunVectorizedBench(state, *s);
}
BENCHMARK(BM_ProbeAggVectorized_Q21IntGroup)->Unit(benchmark::kMillisecond);

void BM_ProbeAggBaseline_Q4StringGroup(benchmark::State& state) {
  static const Shape* s = new Shape(MakeQ4Shape());
  RunBaselineBench(state, *s);
}
BENCHMARK(BM_ProbeAggBaseline_Q4StringGroup)->Unit(benchmark::kMillisecond);

void BM_ProbeAggVectorized_Q4StringGroup(benchmark::State& state) {
  static const Shape* s = new Shape(MakeQ4Shape());
  RunVectorizedBench(state, *s);
}
BENCHMARK(BM_ProbeAggVectorized_Q4StringGroup)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace clydesdale
