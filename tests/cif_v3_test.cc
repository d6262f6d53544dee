// CIF scan tests: per-block encoding selection end to end, zone-map block
// skipping, predicate/key-filter pushdown evaluated in the compressed domain,
// compression accounting, run-metadata exposure, zero-copy string views and
// their arena lifetime, roll-in segments, a differential test of the
// batch-at-a-time scan against decode-everything-then-filter, and the
// corruption cases the reader must reject with IoError (never undefined
// behaviour — the asan preset runs this suite). Every scan is checked
// against the rows the test wrote.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "core/dim_hash_table.h"
#include "hdfs/dfs.h"
#include "storage/cif.h"
#include "storage/column_codec.h"
#include "storage/scan_spec.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace storage {
namespace {

/// A table shape the fixture can write: a schema plus the row at ordinal i.
struct Shape {
  SchemaPtr (*schema)();
  Row (*row)(int32_t i);
};

// The run-heavy shape, chosen so every block encoding appears: "id" is
// sequential (bit-pack / FoR), "date" is a large base plus a small cyclic
// offset (FoR), "qty" has long runs (RLE), "price" is incompressible doubles
// (plain), and "mode" is low-cardinality strings in runs (dictionary + RLE
// of codes).
SchemaPtr FactSchema() {
  return Schema::Make({{"id", TypeKind::kInt32, 4},
                       {"date", TypeKind::kInt64, 8},
                       {"qty", TypeKind::kInt32, 4},
                       {"price", TypeKind::kDouble, 8},
                       {"mode", TypeKind::kString, 6}});
}

Row MakeRow(int32_t i) {
  const char* modes[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
  return Row({Value(i), Value(int64_t{19920101} + i % 97),
              Value(static_cast<int32_t>((i / 64) % 5)), Value(i * 0.25),
              Value(modes[(i / 50) % 4])});
}

// The run-free shape: every column changes on every row, so integers pack
// (bit-pack / FoR) but never run-length encode, and strings cycle through a
// 4-entry dictionary with one code per row (plain dictionary, never RLE).
SchemaPtr CyclicSchema() {
  return Schema::Make({{"id", TypeKind::kInt32, 4},
                       {"big", TypeKind::kInt64, 8},
                       {"ratio", TypeKind::kDouble, 8},
                       {"mode", TypeKind::kString, 6}});
}

Row MakeCyclicRow(int32_t id) {
  const char* modes[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
  return Row({Value(id), Value(static_cast<int64_t>(id) * 1000),
              Value(id * 0.25), Value(modes[id % 4])});
}

constexpr Shape kRuns{FactSchema, MakeRow};
constexpr Shape kCyclic{CyclicSchema, MakeCyclicRow};

/// The rows [0, n) of `shape` that `leaf` accepts — the oracle for every
/// pushdown test.
std::vector<Row> WrittenRowsMatching(const Shape& shape, int n,
                                     const Predicate::Ptr& leaf) {
  auto bound = leaf->Bind(*shape.schema());
  CLY_CHECK(bound.ok());
  std::vector<Row> rows;
  for (int32_t i = 0; i < n; ++i) {
    Row row = shape.row(i);
    if ((*bound)->Eval(row)) rows.push_back(std::move(row));
  }
  return rows;
}

class CifV3Test : public ::testing::Test {
 protected:
  CifV3Test() : dfs_(MakeOptions()) {}

  static hdfs::DfsOptions MakeOptions() {
    hdfs::DfsOptions options;
    options.num_nodes = 2;
    options.block_size = 64 * 1024;
    options.replication = 1;
    return options;
  }

  /// Writes rows [0, n) of `shape`, returns the reloaded desc.
  TableDesc WriteTable(const std::string& path, int n, int64_t rows_per_split,
                       const Shape& shape = kRuns) {
    TableDesc desc;
    desc.path = path;
    desc.format = kFormatCif;
    desc.schema = shape.schema();
    desc.rows_per_split = rows_per_split;
    auto writer = OpenTableWriter(&dfs_, desc);
    CLY_CHECK(writer.ok());
    for (int i = 0; i < n; ++i) CLY_CHECK_OK((*writer)->Append(shape.row(i)));
    CLY_CHECK_OK((*writer)->Close());
    auto loaded = LoadTableDesc(dfs_, path);
    CLY_CHECK(loaded.ok());
    return *loaded;
  }

  Result<std::vector<Row>> Scan(const TableDesc& desc, ScanOptions scan) {
    return ScanTableToVector(dfs_, desc, scan);
  }

  /// Pushes each leaf into a scan and compares against the written rows the
  /// leaf accepts, exactly and in order.
  void ExpectPushdownMatchesWrittenRows(
      const TableDesc& desc, const Shape& shape, int n,
      std::initializer_list<Predicate::Ptr> leaves) {
    for (const Predicate::Ptr& leaf : leaves) {
      SCOPED_TRACE(leaf->ToString());
      ScanOptions pushed;
      pushed.scan_spec = SpecWith(leaf);
      auto got = Scan(desc, pushed);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::vector<Row> expected = WrittenRowsMatching(shape, n, leaf);
      ASSERT_EQ(got->size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ((*got)[i], expected[i]);
      }
    }
  }

  static std::shared_ptr<const ScanSpec> SpecWith(Predicate::Ptr leaf) {
    auto spec = std::make_shared<ScanSpec>();
    spec->conjuncts.push_back(std::move(leaf));
    return spec;
  }

  hdfs::MiniDfs dfs_;
};

TEST_F(CifV3Test, NewTablesDefaultToV3AndRoundTrip) {
  const TableDesc desc = WriteTable("/v3", 1024, 256);
  auto rows = Scan(desc, ScanOptions{});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1024u);
  for (size_t i = 0; i < rows->size(); ++i) {
    ASSERT_EQ((*rows)[i], MakeRow(static_cast<int32_t>(i)));
  }
}

TEST_F(CifV3Test, WriterPicksEveryEncodingAndCompresses) {
  const TableDesc desc = WriteTable("/enc", 1024, 256);
  ScanStats stats;
  ScanOptions scan;
  scan.scan_stats = &stats;
  ASSERT_TRUE(Scan(desc, scan).ok());

  // 4 splits x 5 columns: every loaded block is tagged exactly once, and
  // each column shape lands on its intended encoding family.
  uint64_t total = 0;
  for (int e = 0; e < 6; ++e) total += stats.blocks_by_encoding[e];
  EXPECT_EQ(total, 20u);
  EXPECT_GT(stats.blocks_by_encoding[kEncPlain], 0u);    // price
  EXPECT_GT(stats.blocks_by_encoding[kEncRle], 0u);      // qty
  EXPECT_GT(stats.blocks_by_encoding[kEncBitPack], 0u);  // id, first block
  EXPECT_GT(stats.blocks_by_encoding[kEncFor], 0u);      // date
  EXPECT_GT(stats.blocks_by_encoding[kEncDictRle], 0u);  // mode

  // The acceptance bar: low-cardinality columns compress the table well
  // past 1.5x even though the double column stays plain.
  ASSERT_GT(stats.bytes_encoded, 0u);
  EXPECT_GT(stats.bytes_raw, stats.bytes_encoded * 3 / 2)
      << "raw=" << stats.bytes_raw << " encoded=" << stats.bytes_encoded;
}

TEST_F(CifV3Test, PushdownOnEncodedBlocksMatchesEngineSideFilterExactly) {
  const TableDesc desc = WriteTable("/pushdown", 1024, 256);
  // One leaf per encoding family: bit-pack/FoR id, FoR date, RLE qty,
  // plain-double price, dict-RLE mode.
  ExpectPushdownMatchesWrittenRows(desc, kRuns, 1024, {
      Predicate::Between("id", Value(int32_t{100}), Value(int32_t{700})),
      Predicate::Gt("date", Value(int64_t{19920150})),
      Predicate::Eq("qty", Value(int32_t{3})),
      Predicate::Ne("qty", Value(int32_t{0})),
      Predicate::Le("price", Value(100.0)),
      Predicate::Eq("mode", Value("SHIP")),
      Predicate::Ne("mode", Value("AIR")),
      Predicate::In("id", {Value(int32_t{3}), Value(int32_t{511}),
                           Value(int32_t{1023})}),
  });
}

TEST_F(CifV3Test, PackedZoneSkipsDisjointBlocks) {
  // Sequential ids in packed blocks: the synthetic [base, base+2^width-1]
  // zone derived from the packing parameters must refute blocks 2..4 even
  // before their explicit zone maps are consulted.
  const TableDesc desc = WriteTable("/zones", 1024, 256);
  ScanStats stats;
  ScanOptions scan;
  scan.scan_spec = SpecWith(Predicate::Le("id", Value(int32_t{50})));
  scan.scan_stats = &stats;
  auto rows = Scan(desc, scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 51u);
  EXPECT_EQ(stats.blocks_skipped, 3u);
  EXPECT_EQ(stats.rows_pruned, 1024u - 51u);
}

/// Set-membership filter standing in for a dimension hash table.
class SetKeyFilter final : public ScanKeyFilter {
 public:
  explicit SetKeyFilter(std::set<int64_t> keys) : keys_(std::move(keys)) {}
  int64_t FilterSelection(const int64_t* keys, int32_t* sel,
                          int64_t n) const override {
    int64_t kept = 0;
    for (int64_t j = 0; j < n; ++j) {
      if (keys_.count(keys[sel[j]]) > 0) sel[kept++] = sel[j];
    }
    return kept;
  }
  bool RangeMightMatch(int64_t lo, int64_t hi) const override {
    return !keys_.empty() && !(hi < *keys_.begin() || lo > *keys_.rbegin());
  }

 private:
  std::set<int64_t> keys_;
};

TEST_F(CifV3Test, KeyFiltersProbeCompressedBlocks) {
  const TableDesc desc = WriteTable("/keys", 1024, 256);
  // One filter on a packed column (per-code probing + packed-range zone
  // skip) and one on an RLE column (one probe per touched run).
  {
    auto spec = std::make_shared<ScanSpec>();
    spec->key_filters.push_back(
        {"id", std::make_shared<SetKeyFilter>(std::set<int64_t>{5, 60, 61})});
    ScanStats stats;
    ScanOptions scan;
    scan.scan_spec = spec;
    scan.scan_stats = &stats;
    auto rows = Scan(desc, scan);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 3u);
    EXPECT_EQ((*rows)[0], MakeRow(5));
    EXPECT_EQ((*rows)[1], MakeRow(60));
    EXPECT_EQ((*rows)[2], MakeRow(61));
    EXPECT_EQ(stats.blocks_skipped, 3u);
  }
  {
    auto spec = std::make_shared<ScanSpec>();
    spec->key_filters.push_back(
        {"qty", std::make_shared<SetKeyFilter>(std::set<int64_t>{2})});
    ScanOptions scan;
    scan.scan_spec = spec;
    auto rows = Scan(desc, scan);
    ASSERT_TRUE(rows.ok());
    // qty == 2 holds for i in [128,192) of every 320-row cycle.
    size_t expected = 0;
    for (int i = 0; i < 1024; ++i) expected += (i / 64) % 5 == 2;
    ASSERT_EQ(rows->size(), expected);
    for (const Row& row : *rows) {
      EXPECT_EQ(row.values()[2], Value(int32_t{2}));
    }
  }
}

TEST_F(CifV3Test, ExposedRunsSurviveBatchSlicing) {
  const TableDesc desc = WriteTable("/runs", 512, 512);
  auto splits = ListTableSplits(dfs_, desc);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->size(), 1u);
  ScanOptions scan;
  scan.projection = {"qty", "id"};
  auto reader = OpenSplitBatchReader(dfs_, desc, (*splits)[0], scan);
  ASSERT_TRUE(reader.ok());
  RowBatch batch((*reader)->output_schema());
  int32_t next = 0;
  bool saw_runs = false;
  while (true) {
    auto more = (*reader)->NextBatch(&batch, 33);  // uneven slice boundaries
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    const ColumnVector& qty = batch.column(0);
    if (qty.has_runs()) {
      saw_runs = true;
      // The overlay must describe exactly the materialized values: run k
      // covers [starts[k], starts[k+1]) and all rows in it equal values[k].
      const auto& starts = qty.run_starts();
      const auto& values = qty.run_values();
      ASSERT_EQ(starts.front(), 0);
      ASSERT_EQ(starts.back(), qty.size());
      for (size_t k = 0; k + 1 < starts.size(); ++k) {
        ASSERT_LT(starts[k], starts[k + 1]);
        for (int32_t r = starts[k]; r < starts[k + 1]; ++r) {
          ASSERT_EQ(qty.i32()[static_cast<size_t>(r)], values[k]);
        }
      }
    }
    for (int64_t i = 0; i < batch.num_rows(); ++i, ++next) {
      ASSERT_EQ(qty.i32()[static_cast<size_t>(i)], (next / 64) % 5);
    }
  }
  EXPECT_EQ(next, 512);
  EXPECT_TRUE(saw_runs) << "RLE qty blocks should surface run metadata";
}

TEST_F(CifV3Test, ArenasOutliveHandedOutStringViews) {
  // The string views a batch hands out must stay valid for as long as the
  // consumer holds the batch's arena — exactly what an aggregator does with
  // group keys. Collect every view plus its pinning arena across the whole
  // scan, then read them all back after the readers are gone (the asan
  // preset checks the lifetime).
  const TableDesc desc = WriteTable("/arena", 1024, 128);
  std::vector<std::pair<std::shared_ptr<const std::vector<uint8_t>>,
                        std::vector<std::string_view>>>
      held;
  {
    auto splits = ListTableSplits(dfs_, desc);
    ASSERT_TRUE(splits.ok());
    ScanOptions scan;
    scan.projection = {"mode", "qty"};
    for (const StorageSplit& split : *splits) {
      auto reader = OpenSplitBatchReader(dfs_, desc, split, scan);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      RowBatch batch((*reader)->output_schema());
      while (true) {
        auto more = (*reader)->NextBatch(&batch, 57);
        ASSERT_TRUE(more.ok()) << more.status().ToString();
        if (!*more) break;
        const ColumnVector& mode = batch.column(0);
        ASSERT_TRUE(mode.is_string_view());
        ASSERT_NE(mode.string_arena(), nullptr);
        held.push_back({mode.string_arena(), mode.str_views()});
      }
    }
  }  // readers destroyed here
  int32_t i = 0;
  const char* modes[] = {"AIR", "RAIL", "SHIP", "TRUCK"};
  for (const auto& [arena, views] : held) {
    for (std::string_view v : views) {
      ASSERT_EQ(v, modes[(i / 50) % 4]) << "row " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, 1024);
}

// --- run-free blocks --------------------------------------------------------
// The same scan paths over the cyclic shape, where no column has runs:
// explicit zone maps, plain dictionary codes and per-row key probes do the
// pruning instead of run and packed-range shortcuts.

TEST_F(CifV3Test, CyclicTableRoundTrips) {
  const TableDesc desc = WriteTable("/cyclic", 300, 64, kCyclic);
  auto rows = Scan(desc, ScanOptions{});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 300u);
  for (size_t i = 0; i < rows->size(); ++i) {
    ASSERT_EQ((*rows)[i], MakeCyclicRow(static_cast<int32_t>(i)));
  }
}

TEST_F(CifV3Test, ZoneMapsSkipDisjointBlocks) {
  // 256 sequential ids over 4 splits of 64: ids >= 64 never match, so three
  // of the four blocks must be refuted by their zone maps alone.
  const TableDesc desc = WriteTable("/zones_cyclic", 256, 64, kCyclic);
  ScanStats stats;
  ScanOptions scan;
  scan.scan_spec = SpecWith(Predicate::Le("id", Value(int32_t{50})));
  scan.scan_stats = &stats;
  auto rows = Scan(desc, scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 51u);
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i], MakeCyclicRow(static_cast<int32_t>(i)));
  }
  EXPECT_EQ(stats.blocks_skipped, 3u);
  // 3 skipped blocks (192 rows) + 13 rows pruned inside the first block.
  EXPECT_EQ(stats.rows_pruned, 205u);
}

TEST_F(CifV3Test, PushdownMatchesEngineSideFilterExactly) {
  const TableDesc desc = WriteTable("/pushdown_cyclic", 300, 64, kCyclic);
  ExpectPushdownMatchesWrittenRows(desc, kCyclic, 300, {
      Predicate::Between("id", Value(int32_t{40}), Value(int32_t{200})),
      Predicate::Gt("big", Value(int64_t{150000})),
      Predicate::Le("ratio", Value(12.5)),
      Predicate::Eq("mode", Value("SHIP")),
      Predicate::In("id", {Value(int32_t{3}), Value(int32_t{77}),
                           Value(int32_t{290})}),
      Predicate::Ne("mode", Value("AIR")),
  });
}

TEST_F(CifV3Test, DictionaryZoneRefutesAbsentString) {
  const TableDesc desc = WriteTable("/dictzone", 128, 64, kCyclic);
  ScanStats stats;
  ScanOptions scan;
  scan.scan_spec = SpecWith(Predicate::Eq("mode", Value("CANAL")));
  scan.scan_stats = &stats;
  auto rows = Scan(desc, scan);
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(stats.rows_pruned, 128u);  // every row, by zone or by code test
}

// The NaN table: NaN equals only NaN and sorts above every number, in the
// row Eval (Value::Compare), in EvalBatch and in the CIF scan alike.
SchemaPtr NanSchema() { return Schema::Make({{"x", TypeKind::kDouble, 8}}); }

Row MakeNanRow(int32_t i) {
  const double xs[] = {1.0, std::numeric_limits<double>::quiet_NaN(), 2.0,
                       0.5};
  return Row({Value(xs[i % 4])});
}

constexpr Shape kNan{NanSchema, MakeNanRow};

TEST_F(CifV3Test, NanLeavesAgreeAcrossRowEvalBatchEvalAndScan) {
  const TableDesc desc = WriteTable("/nan", 4, 4, kNan);
  RowBatch batch(NanSchema());
  for (int32_t i = 0; i < 4; ++i) batch.AppendRow(MakeNanRow(i));
  const std::pair<Predicate::Ptr, size_t> cases[] = {
      {Predicate::Le("x", Value(1.5)), 2},
      {Predicate::Eq("x", Value(1.0)), 1},
      {Predicate::Ge("x", Value(1.0)), 3},
      {Predicate::Ne("x", Value(1.0)), 3},
      {Predicate::Eq("x", Value(std::numeric_limits<double>::quiet_NaN())), 1},
      {Predicate::Gt("x", Value(1e300)), 1},
  };
  for (const auto& [leaf, count] : cases) {
    SCOPED_TRACE(leaf->ToString());
    auto bound = leaf->Bind(*NanSchema());
    ASSERT_TRUE(bound.ok());
    std::vector<uint8_t> sel(4, 1);
    (*bound)->EvalBatch(batch, &sel);
    size_t by_row = 0;
    size_t by_batch = 0;
    for (int64_t i = 0; i < 4; ++i) {
      by_row += (*bound)->Eval(batch.GetRow(i)) ? 1 : 0;
      by_batch += sel[static_cast<size_t>(i)];
    }
    EXPECT_EQ(by_row, count);
    EXPECT_EQ(by_batch, count);
    ScanOptions scan;
    scan.scan_spec = SpecWith(leaf);
    auto rows = Scan(desc, scan);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->size(), count);
  }
}

TEST_F(CifV3Test, ConjunctsTheScanCannotApplyAreTypedErrors) {
  const TableDesc desc = WriteTable("/unplaceable", 64, 64);
  for (const Predicate::Ptr& conjunct :
       {Predicate::Eq("nope", Value(int32_t{1})),
        Predicate::Eq("mode", Value(int32_t{1})),
        Predicate::Or({Predicate::Eq("id", Value(int32_t{1})),
                       Predicate::Eq("id", Value(int32_t{2}))})}) {
    ScanOptions scan;
    scan.scan_spec = SpecWith(conjunct);
    auto rows = Scan(desc, scan);
    ASSERT_FALSE(rows.ok()) << conjunct->ToString();
    EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);
  }

  // A format whose reader applies no conjunct refuses them, and
  // SplitForScan hands the caller its whole predicate.
  TableDesc rows_desc;
  rows_desc.path = "/unplaceable_rows";
  rows_desc.format = kFormatBinaryRow;
  rows_desc.schema = FactSchema();
  {
    auto writer = OpenTableWriter(&dfs_, rows_desc);
    ASSERT_TRUE(writer.ok());
    for (int32_t i = 0; i < 8; ++i) {
      ASSERT_TRUE((*writer)->Append(MakeRow(i)).ok());
    }
    ASSERT_TRUE((*writer)->Close().ok());
  }
  auto loaded = LoadTableDesc(dfs_, rows_desc.path);
  ASSERT_TRUE(loaded.ok());
  ScanOptions scan;
  scan.scan_spec = SpecWith(Predicate::Eq("id", Value(int32_t{1})));
  auto rows = Scan(*loaded, scan);
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kInvalidArgument);

  const Predicate::Ptr pred =
      Predicate::And({Predicate::Eq("id", Value(int32_t{1})),
                      Predicate::Lt("qty", Value(int32_t{3}))});
  const Predicate::LeafSplit rows_split = SplitForScan(kFormatBinaryRow, *pred);
  EXPECT_TRUE(rows_split.leaves.empty());
  EXPECT_EQ(rows_split.residual, pred);
  const Predicate::LeafSplit cif_split = SplitForScan(kFormatCif, *pred);
  EXPECT_EQ(cif_split.leaves.size(), 2u);
  EXPECT_TRUE(cif_split.residual->IsTrue());
}

TEST_F(CifV3Test, KeyFiltersPruneRowsAndSkipBlocks) {
  const TableDesc desc = WriteTable("/keys_cyclic", 256, 64, kCyclic);
  auto spec = std::make_shared<ScanSpec>();
  spec->key_filters.push_back(
      {"id", std::make_shared<SetKeyFilter>(std::set<int64_t>{5, 60, 61})});
  ScanStats stats;
  ScanOptions scan;
  scan.scan_spec = spec;
  scan.scan_stats = &stats;
  auto rows = Scan(desc, scan);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0], MakeCyclicRow(5));
  EXPECT_EQ((*rows)[1], MakeCyclicRow(60));
  EXPECT_EQ((*rows)[2], MakeCyclicRow(61));
  // Splits [64,128), [128,192), [192,256) are outside [5, 61].
  EXPECT_EQ(stats.blocks_skipped, 3u);
}

TEST_F(CifV3Test, BatchReaderSlicesStringViews) {
  const TableDesc desc = WriteTable("/views", 200, 200, kCyclic);
  auto splits = ListTableSplits(dfs_, desc);
  ASSERT_TRUE(splits.ok());
  ASSERT_EQ(splits->size(), 1u);
  ScanOptions scan;
  auto reader = OpenSplitBatchReader(dfs_, desc, (*splits)[0], scan);
  ASSERT_TRUE(reader.ok());
  RowBatch batch((*reader)->output_schema());
  int32_t next_id = 0;
  while (true) {
    auto more = (*reader)->NextBatch(&batch, 33);  // uneven slice boundaries
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    // The string column must arrive as arena-backed views (zero-copy), and
    // every accessor must agree with the written values.
    EXPECT_TRUE(batch.column(3).is_string_view());
    for (int64_t i = 0; i < batch.num_rows(); ++i, ++next_id) {
      EXPECT_EQ(batch.GetRow(i), MakeCyclicRow(next_id));
    }
  }
  EXPECT_EQ(next_id, 200);
}

TEST_F(CifV3Test, AppendedSegmentKeepsVersionAndScans) {
  TableDesc desc = WriteTable("/seg", 100, 64, kCyclic);
  auto appender = AppendCifSegment(&dfs_, desc);
  ASSERT_TRUE(appender.ok());
  for (int i = 100; i < 150; ++i) {
    ASSERT_TRUE((*appender)->Append(MakeCyclicRow(i)).ok());
  }
  ASSERT_TRUE((*appender)->Close().ok());
  // The rewritten metadata must still carry the layout version: reloading
  // refuses any table that does not.
  auto reloaded = LoadTableDesc(dfs_, "/seg");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  auto rows = Scan(*reloaded, ScanOptions{});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 150u);
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_EQ((*rows)[i], MakeCyclicRow(static_cast<int32_t>(i)));
  }
}

// --- differential: batch scan vs decode-then-filter --------------------------
// Random tables whose column blocks cover every encoding, random pushed
// leaves and dimension key filters, scanned at batch sizes whose edges fall
// inside runs and packed words. The oracle filters the written rows.

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

/// A dimension key set as the star join pushes it — its DimHashTable, so
/// the scan runs the table's own bitmap or key-lane path — plus the set the
/// oracle tests.
struct DimKeys {
  explicit DimKeys(const std::vector<int64_t>& keys)
      : set(keys.begin(), keys.end()) {
    std::vector<Row> rows;
    for (int64_t k : keys) rows.push_back(Row({Value(k)}));
    const SchemaPtr schema = Schema::Make({{"pk", TypeKind::kInt64, 8}});
    const std::vector<uint8_t> image = EncodeColumnImage(schema, rows);
    auto built = core::DimHashTable::Build(*schema, image.data(), image.size(),
                                           *Predicate::True(), "pk", {});
    CLY_CHECK(built.ok());
    table = std::move(*built);
  }
  std::set<int64_t> set;
  std::shared_ptr<const core::DimHashTable> table;
};

SchemaPtr DiffSchema() {
  return Schema::Make({{"a", TypeKind::kInt64, 8},
                       {"b", TypeKind::kInt32, 4},
                       {"c", TypeKind::kDouble, 8},
                       {"s", TypeKind::kString, 6}});
}

// Dense dimension keys live in [kDenseLo, kDenseHi]; the pool column "a"
// draws from adds both ends, one past each, and the int64 extremes.
constexpr int64_t kDenseLo = -40;
constexpr int64_t kDenseHi = 260;
const std::vector<int64_t>& SpecialKeys() {
  static const std::vector<int64_t> keys = {
      kI64Min, kI64Min + 1, kI64Min + 2, kDenseLo - 1, kDenseLo, -1, 0,
      kDenseHi, kDenseHi + 1, int64_t{1} << 40, kI64Max};
  return keys;
}

/// Rows of `splits` splits of `rows_per_split` rows. Each split picks, per
/// column, a value shape that steers the writer to one encoding family.
std::vector<Row> DiffRows(uint64_t seed, int splits, int rows_per_split) {
  Random rng(seed);
  std::vector<Row> rows;
  for (int sp = 0; sp < splits; ++sp) {
    const int64_t a_mode = rng.Uniform(0, 3);
    const int64_t b_mode = rng.Uniform(0, 3);
    const int64_t s_mode = rng.Uniform(0, 2);
    int64_t a_run = 0, b_run = 0, s_run = 0;
    int64_t a = 0, b = 0, s = 0;
    for (int i = 0; i < rows_per_split; ++i) {
      const std::vector<int64_t>& pool = SpecialKeys();
      switch (a_mode) {
        case 0:  // plain: the extremes leave no packable range
          a = rng.Bernoulli(0.5)
                  ? pool[static_cast<size_t>(rng.Uniform(0, 10))]
                  : rng.Uniform(kDenseLo - 2, kDenseHi + 2);
          break;
        case 1:  // RLE
          if (a_run-- <= 0) {
            a_run = rng.Uniform(0, 300);
            a = rng.Bernoulli(0.3)
                    ? pool[static_cast<size_t>(rng.Uniform(0, 10))]
                    : rng.Uniform(kDenseLo - 2, kDenseHi + 2);
          }
          break;
        case 2:  // bit-packed
          a = rng.Uniform(0, kDenseHi + 2);
          break;
        default:  // frame of reference
          a = rng.Uniform(kDenseLo - 2, kDenseHi + 2);
          break;
      }
      switch (b_mode) {
        case 0:
          b = rng.Uniform(-2000000000, 2000000000);
          break;
        case 1:
          if (b_run-- <= 0) {
            b_run = rng.Uniform(0, 200);
            b = rng.Uniform(kDenseLo - 2, kDenseHi + 2);
          }
          break;
        case 2:
          b = rng.Uniform(0, 5000);
          break;
        default:
          b = rng.Uniform(kDenseLo - 2, kDenseHi + 2);
          break;
      }
      if (s_mode == 0) {
        s = rng.Uniform(0, 399);  // > 256 distinct: plain
      } else if (s_mode == 1) {
        s = rng.Uniform(0, 4);  // dictionary
      } else if (s_run-- <= 0) {
        s_run = rng.Uniform(0, 100);
        s = rng.Uniform(0, 4);  // dict-RLE
      }
      rows.push_back(Row({Value(a), Value(static_cast<int32_t>(b)),
                          Value(static_cast<double>(rng.Uniform(-200, 200)) / 2),
                          Value(StrCat("v", s))}));
    }
  }
  return rows;
}

/// One random pushed leaf over the differential schema.
Predicate::Ptr RandomLeaf(Random* rng) {
  const auto a = [&] {
    return Value(SpecialKeys()[static_cast<size_t>(rng->Uniform(0, 10))]);
  };
  const auto b = [&] {
    return Value(static_cast<int32_t>(rng->Uniform(kDenseLo, kDenseHi)));
  };
  const auto str = [&] { return Value("v" + std::to_string(rng->Uniform(0, 5))); };
  switch (rng->Uniform(0, 9)) {
    case 0: return Predicate::Lt("a", a());
    case 1: return Predicate::Ge("a", a());
    case 2: return Predicate::Between("b", b(), b());
    case 3: return Predicate::Ne("b", b());
    case 4: return Predicate::In("b", {b(), b(), b()});
    case 5: return Predicate::Le("c", Value(static_cast<double>(rng->Uniform(-100, 100))));
    case 6: return Predicate::Eq("s", str());
    case 7: return Predicate::In("s", {str(), str()});
    case 8: return Predicate::Gt("s", str());
    default: return Predicate::Eq("a", a());
  }
}

/// Key sets: dense ones get a bitmap, sparse ones the key-lane fallback.
std::vector<int64_t> DenseKeys(Random* rng) {
  std::vector<int64_t> keys = {kDenseLo, kDenseHi};
  for (int64_t k = kDenseLo; k <= kDenseHi; ++k) {
    if (rng->Bernoulli(0.3)) keys.push_back(k);
  }
  return keys;
}

std::vector<int64_t> SparseKeys(Random* rng) {
  std::vector<int64_t> keys = {kI64Min, kI64Max, -1, int64_t{1} << 40};
  for (int i = 0; i < 60; ++i) keys.push_back(rng->Uniform(kDenseLo, kDenseHi));
  return keys;
}

TEST_F(CifV3Test, BatchScanMatchesDecodeThenFilter) {
  constexpr int kSplits = 3;
  constexpr int kRowsPerSplit = 5000;
  ScanStats encodings;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<Row> rows = DiffRows(seed, kSplits, kRowsPerSplit);
    TableDesc desc;
    desc.path = "/diff" + std::to_string(seed);
    desc.format = kFormatCif;
    desc.schema = DiffSchema();
    desc.rows_per_split = kRowsPerSplit;
    {
      auto writer = OpenTableWriter(&dfs_, desc);
      ASSERT_TRUE(writer.ok());
      for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
      ASSERT_TRUE((*writer)->Close().ok());
    }
    auto loaded = LoadTableDesc(dfs_, desc.path);
    ASSERT_TRUE(loaded.ok());
    auto splits = ListTableSplits(dfs_, *loaded);
    ASSERT_TRUE(splits.ok());
    ASSERT_EQ(splits->size(), static_cast<size_t>(kSplits));

    Random rng(seed * 7919);
    for (int trial = 0; trial < 8; ++trial) {
      auto spec = std::make_shared<ScanSpec>();
      const int64_t nleaves = rng.Uniform(0, 2);
      for (int64_t i = 0; i < nleaves; ++i) {
        spec->conjuncts.push_back(RandomLeaf(&rng));
      }
      std::vector<std::pair<int, DimKeys>> filters;
      switch (trial % 4) {
        case 0:
          filters.push_back({0, DimKeys(DenseKeys(&rng))});
          break;
        case 1:
          filters.push_back({0, DimKeys(SparseKeys(&rng))});
          filters.push_back({1, DimKeys(DenseKeys(&rng))});
          break;
        case 2:  // the sentinel key itself, in a range narrow enough for a bitmap
          filters.push_back({0, DimKeys({kI64Min, kI64Min + 2})});
          break;
        default:
          break;
      }
      for (const auto& [field, keys] : filters) {
        EXPECT_EQ(keys.table->has_key_bitmap(), trial % 4 != 1 || field == 1);
        spec->key_filters.push_back({desc.schema->field(field).name, keys.table});
      }

      std::vector<Row> expected;
      std::vector<BoundPredicatePtr> bound;
      for (const Predicate::Ptr& leaf : spec->conjuncts) {
        auto b = leaf->Bind(*desc.schema);
        ASSERT_TRUE(b.ok());
        bound.push_back(std::move(*b));
      }
      for (const Row& row : rows) {
        bool keep = true;
        for (const BoundPredicatePtr& b : bound) keep = keep && b->Eval(row);
        for (const auto& [field, keys] : filters) {
          const Value& key = row.Get(field);
          keep = keep && keys.set.count(key.kind() == TypeKind::kInt32
                                            ? key.i32()
                                            : key.i64()) > 0;
        }
        if (keep) expected.push_back(row);
      }

      for (int64_t batch_rows : {int64_t{1}, int64_t{7}, int64_t{4096},
                                 int64_t{4 * kRowsPerSplit}}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " trial " << trial << " batch "
                     << batch_rows);
        ScanOptions scan;
        scan.scan_spec = spec;
        scan.scan_stats = &encodings;
        std::vector<Row> got;
        for (const StorageSplit& split : *splits) {
          auto reader = OpenSplitBatchReader(dfs_, *loaded, split, scan);
          ASSERT_TRUE(reader.ok()) << reader.status().ToString();
          RowBatch batch((*reader)->output_schema());
          while (true) {
            auto more = (*reader)->NextBatch(&batch, batch_rows);
            ASSERT_TRUE(more.ok()) << more.status().ToString();
            if (!*more) break;
            ASSERT_GT(batch.num_rows(), 0);
            ASSERT_LE(batch.num_rows(), batch_rows);
            for (int c = 0; c < 2; ++c) {
              const ColumnVector& col = batch.column(c);
              if (!col.has_runs()) continue;
              ASSERT_EQ(col.run_starts().back(), col.size());
              for (size_t k = 0; k + 1 < col.run_starts().size(); ++k) {
                for (int32_t r = col.run_starts()[k];
                     r < col.run_starts()[k + 1]; ++r) {
                  ASSERT_EQ(col.KeyAt(r), col.run_values()[k]);
                }
              }
            }
            for (int64_t i = 0; i < batch.num_rows(); ++i) {
              got.push_back(batch.GetRow(i));
            }
          }
        }
        ASSERT_EQ(got.size(), expected.size());
        for (size_t i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expected[i]);
      }
    }
  }
  // Across the seeds every block encoding was read.
  for (int e = 0; e < kEncCount; ++e) {
    EXPECT_GT(encodings.blocks_by_encoding[e], 0u) << EncodingName(e);
  }
}

// --- corruption --------------------------------------------------------------

/// Byte-level corruption of column blocks: one split, one DFS block per
/// column file, so rewriting a file preserves the reader's block math. In
/// the run-heavy shape the "date" column encodes as FoR and "id" as bit-pack
/// at this size; the cyclic shape's "mode" is a plain dictionary.
class CifV3CorruptionTest : public CifV3Test {
 protected:
  TableDesc WriteSmall(const std::string& path, const Shape& shape = kRuns) {
    return WriteTable(path, 64, 64, shape);
  }

  std::string ColumnFile(const std::string& table, const std::string& col) {
    return table + "/" + col + ".col";
  }

  std::string ReadFile(const std::string& file) {
    auto bytes = dfs_.ReadFileToString(file);
    CLY_CHECK(bytes.ok());
    return *bytes;
  }

  void Rewrite(const std::string& file, std::string contents) {
    CLY_CHECK_OK(dfs_.Delete(file));
    CLY_CHECK_OK(dfs_.WriteFile(file, std::move(contents)));
  }

  /// Footer layout: [..][u32 zone_len][u32 "FOOT"]; the zone region starts
  /// with the encoding-tag byte at size - 8 - zone_len.
  static size_t EncTagOffset(const std::string& block) {
    CLY_CHECK(block.size() >= 16);
    uint32_t zone_len = 0;
    std::memcpy(&zone_len, block.data() + block.size() - 8, sizeof(zone_len));
    CLY_CHECK(zone_len + 8 < block.size());
    return block.size() - 8 - zone_len;
  }

  /// The scan must reject the table with IoError (asan verifies the
  /// rejection involves no out-of-bounds access).
  void ExpectIoError(const TableDesc& desc) {
    auto rows = Scan(desc, ScanOptions{});
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kIoError)
        << rows.status().ToString();
  }
};

TEST_F(CifV3CorruptionTest, UnknownEncodingTagIsRejected) {
  const TableDesc desc = WriteSmall("/badtag");
  const std::string file = ColumnFile("/badtag", "id");
  std::string block = ReadFile(file);
  block[EncTagOffset(block)] = static_cast<char>(0xC8);
  Rewrite(file, std::move(block));
  ExpectIoError(desc);
}

TEST_F(CifV3CorruptionTest, IntegerTagOnStringColumnIsRejected) {
  const TableDesc desc = WriteSmall("/crosstag");
  const std::string file = ColumnFile("/crosstag", "mode");
  std::string block = ReadFile(file);
  block[EncTagOffset(block)] = static_cast<char>(kEncRle);
  Rewrite(file, std::move(block));
  ExpectIoError(desc);
}

TEST_F(CifV3CorruptionTest, TruncatedPackedWordsAreRejected) {
  const TableDesc desc = WriteSmall("/truncwords");
  const std::string file = ColumnFile("/truncwords", "date");
  std::string block = ReadFile(file);
  // Drop the last packed word of the payload: header and footer stay
  // intact, but the word count no longer covers nrows at the tagged width.
  const size_t payload_end = EncTagOffset(block);
  ASSERT_GE(payload_end, 8u + 8u);
  block.erase(payload_end - 8, 8);
  Rewrite(file, std::move(block));
  ExpectIoError(desc);
}

TEST_F(CifV3CorruptionTest, OutOfRangeForDeltasAreRejected) {
  const TableDesc desc = WriteSmall("/forbase");
  const std::string file = ColumnFile("/forbase", "date");
  std::string block = ReadFile(file);
  // The FoR payload leads with the i64 base at offset 8. Maxing it out
  // makes base + any delta overflow int64; the reader must refuse to
  // fabricate values rather than wrap around.
  ASSERT_GE(block.size(), 16u);
  for (size_t i = 8; i < 15; ++i) block[i] = static_cast<char>(0xFF);
  block[15] = 0x7F;
  Rewrite(file, std::move(block));
  ExpectIoError(desc);
}

TEST_F(CifV3CorruptionTest, TruncatedZoneMapFooterIsRejected) {
  const TableDesc desc = WriteSmall("/trunc", kCyclic);
  const std::string file = ColumnFile("/trunc", "id");
  const std::string block = ReadFile(file);
  Rewrite(file, block.substr(0, block.size() - 5));
  ExpectIoError(desc);
}

TEST_F(CifV3CorruptionTest, OversizedZoneLengthIsRejected) {
  const TableDesc desc = WriteSmall("/zlen", kCyclic);
  const std::string file = ColumnFile("/zlen", "big");
  std::string block = ReadFile(file);
  // The u32 before the trailing footer magic is the zone-map length; claim
  // it covers more bytes than the whole block.
  ASSERT_GE(block.size(), 8u);
  for (size_t i = block.size() - 8; i < block.size() - 4; ++i) {
    block[i] = static_cast<char>(0xFF);
  }
  Rewrite(file, std::move(block));
  ExpectIoError(desc);
}

TEST_F(CifV3CorruptionTest, OutOfRangeDictionaryCodeIsRejected) {
  const TableDesc desc = WriteSmall("/dictcode", kCyclic);
  const std::string file = ColumnFile("/dictcode", "mode");
  std::string block = ReadFile(file);
  ASSERT_EQ(static_cast<uint8_t>(block[EncTagOffset(block)]), kEncDict);
  // Flip the last dictionary code (the byte just before the footer's
  // encoding tag) far out of range of the 4-entry dictionary.
  block[EncTagOffset(block) - 1] = static_cast<char>(0xFB);
  Rewrite(file, std::move(block));
  ExpectIoError(desc);
}

}  // namespace
}  // namespace storage
}  // namespace clydesdale
