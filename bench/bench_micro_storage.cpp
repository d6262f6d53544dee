// Micro-benchmarks: storage format scan rates on the simulated DFS — the
// functional-layer view of the paper's columnar-vs-row tradeoff (§4.1) and
// the binary-vs-text serde gap that burdens the Hive baseline.

#include <benchmark/benchmark.h>

#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "core/dim_hash_table.h"
#include "hdfs/dfs.h"
#include "ssb/dbgen.h"
#include "ssb/ssb_schema.h"
#include "storage/byte_io.h"
#include "storage/cif.h"
#include "storage/column_codec.h"
#include "storage/scan_spec.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace {

constexpr int kRows = 40000;

/// One shared DFS with the lineorder sample in every format.
struct Fixture {
  Fixture() : dfs(MakeOptions()) {
    SetLogThreshold(LogLevel::kError);
    ssb::SsbGenerator gen(0.01);
    auto stream = gen.Lineorders();
    std::vector<Row> rows;
    Row row;
    while (static_cast<int>(rows.size()) < kRows && stream.Next(&row)) {
      rows.push_back(row);
    }
    for (const char* format :
         {storage::kFormatText, storage::kFormatBinaryRow, storage::kFormatCif,
          storage::kFormatRcFile}) {
      storage::TableDesc desc;
      desc.path = std::string("/t/") + format;
      desc.format = format;
      desc.schema = ssb::LineorderSchema();
      desc.rows_per_split = 8192;
      auto writer = storage::OpenTableWriter(&dfs, desc);
      CLY_CHECK(writer.ok());
      for (const Row& r : rows) CLY_CHECK_OK((*writer)->Append(r));
      CLY_CHECK_OK((*writer)->Close());
    }
  }

  static hdfs::DfsOptions MakeOptions() {
    hdfs::DfsOptions options;
    options.num_nodes = 2;
    options.block_size = 4 * 1024 * 1024;
    options.replication = 1;
    return options;
  }

  storage::TableDesc Table(const std::string& format) {
    auto desc = storage::LoadTableDesc(dfs, "/t/" + format);
    CLY_CHECK(desc.ok());
    return *desc;
  }

  hdfs::MiniDfs dfs;
};

Fixture& SharedFixture() {
  static Fixture* const kFixture = new Fixture();
  return *kFixture;
}

void ScanBenchmark(benchmark::State& state, const char* format,
                   bool projected) {
  Fixture& f = SharedFixture();
  const storage::TableDesc desc = f.Table(format);
  storage::ScanOptions scan;
  if (projected) {
    // Q2.1's four fact columns.
    scan.projection = {"lo_orderdate", "lo_partkey", "lo_suppkey",
                       "lo_revenue"};
  }
  uint64_t bytes = 0;
  for (auto _ : state) {
    hdfs::IoStats stats;
    scan.stats = &stats;
    auto splits = storage::ListTableSplits(f.dfs, desc);
    CLY_CHECK(splits.ok());
    int64_t rows = 0;
    Row row;
    for (const auto& split : *splits) {
      auto reader = storage::OpenSplitRowReader(f.dfs, desc, split, scan);
      CLY_CHECK(reader.ok());
      while (true) {
        auto more = (*reader)->Next(&row);
        CLY_CHECK(more.ok());
        if (!*more) break;
        ++rows;
      }
    }
    CLY_CHECK(rows == kRows);
    bytes += stats.TotalRead();
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["hdfs_bytes/scan"] =
      static_cast<double>(bytes) / state.iterations();
}

void BM_ScanTextFull(benchmark::State& s) { ScanBenchmark(s, "text", false); }
void BM_ScanBinRowFull(benchmark::State& s) {
  ScanBenchmark(s, "binrow", false);
}
void BM_ScanCifFull(benchmark::State& s) { ScanBenchmark(s, "cif", false); }
void BM_ScanRcFileFull(benchmark::State& s) {
  ScanBenchmark(s, "rcfile", false);
}
void BM_ScanTextProjected(benchmark::State& s) {
  ScanBenchmark(s, "text", true);
}
void BM_ScanBinRowProjected(benchmark::State& s) {
  ScanBenchmark(s, "binrow", true);
}
void BM_ScanCifProjected(benchmark::State& s) { ScanBenchmark(s, "cif", true); }
void BM_ScanRcFileProjected(benchmark::State& s) {
  ScanBenchmark(s, "rcfile", true);
}

BENCHMARK(BM_ScanTextFull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanBinRowFull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanCifFull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanRcFileFull)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanTextProjected)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanBinRowProjected)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanCifProjected)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ScanRcFileProjected)->Unit(benchmark::kMillisecond);

// --- the star join's scan: key filters over CIF batches ----------------------
// Q4.1's fact scan as the map task runs it: three dimension key filters
// (customer and supplier in AMERICA, part MFGR#1/#2), no fact leaves,
// batch by batch through OpenCifSplitBatchReader. Measures the per-batch
// decode, the bitmap key filters and the gather of the survivors.

/// A dimension's hash table: the key filter the star join pushes.
std::shared_ptr<const core::DimHashTable> DimTable(
    const SchemaPtr& schema, const std::vector<Row>& rows,
    const Predicate& predicate, const std::string& pk) {
  const std::vector<uint8_t> image = storage::EncodeColumnImage(schema, rows);
  auto table = core::DimHashTable::Build(*schema, image.data(), image.size(),
                                         predicate, pk, {});
  CLY_CHECK(table.ok());
  return std::move(*table);
}

void BM_CifScanKeyFilter(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const storage::TableDesc desc = f.Table("cif");
  const ssb::SsbGenerator gen(0.01);
  std::vector<Row> customers, suppliers, parts;
  for (uint64_t k = 1; k <= gen.cardinalities().customers; ++k) {
    customers.push_back(gen.CustomerRow(static_cast<int64_t>(k)));
  }
  for (uint64_t k = 1; k <= gen.cardinalities().suppliers; ++k) {
    suppliers.push_back(gen.SupplierRow(static_cast<int64_t>(k)));
  }
  for (uint64_t k = 1; k <= gen.cardinalities().parts; ++k) {
    parts.push_back(gen.PartRow(static_cast<int64_t>(k)));
  }
  auto spec = std::make_shared<storage::ScanSpec>();
  spec->key_filters = {
      {"lo_custkey",
       DimTable(ssb::CustomerSchema(), customers,
                *Predicate::Eq("c_region", Value("AMERICA")), "c_custkey")},
      {"lo_suppkey",
       DimTable(ssb::SupplierSchema(), suppliers,
                *Predicate::Eq("s_region", Value("AMERICA")), "s_suppkey")},
      {"lo_partkey",
       DimTable(ssb::PartSchema(), parts,
                *Predicate::In("p_mfgr", {Value("MFGR#1"), Value("MFGR#2")}),
                "p_partkey")},
  };
  storage::ScanOptions scan;
  scan.projection = {"lo_custkey",  "lo_suppkey", "lo_partkey",
                     "lo_orderdate", "lo_revenue", "lo_supplycost"};
  scan.scan_spec = spec;
  auto splits = storage::ListTableSplits(f.dfs, desc);
  CLY_CHECK(splits.ok());
  int64_t survivors = 0;
  for (auto _ : state) {
    survivors = 0;
    for (const auto& split : *splits) {
      auto reader = storage::OpenCifSplitBatchReader(f.dfs, desc, split, scan);
      CLY_CHECK(reader.ok());
      RowBatch batch((*reader)->output_schema());
      while (true) {
        auto more = (*reader)->NextBatch(&batch, 4096);
        CLY_CHECK(more.ok());
        if (!*more) break;
        survivors += batch.num_rows();
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kRows);
  state.counters["survivors"] = static_cast<double>(survivors);
}

BENCHMARK(BM_CifScanKeyFilter)->Unit(benchmark::kMicrosecond);

// --- compressed-domain key probing (CIF v3 RLE blocks) -----------------------
// The run-aware probe's core claim: a membership probe against an RLE
// foreign-key block needs one hash lookup per *run*, while the classic path
// decodes the block and probes per *row*. Same validated IntBlockView, same
// filter, same output bitmap — only the probing granularity differs.

constexpr uint32_t kProbeRows = 65536;
constexpr uint32_t kProbeRunLen = 64;  // dimension keys in chronology-length runs

struct RleProbeFixture {
  RleProbeFixture() {
    // 1024 runs of 64 rows; every 3rd key is a member (join selectivity 1/3).
    ColumnVector col(TypeKind::kInt64);
    for (uint32_t i = 0; i < kProbeRows; ++i) {
      col.AppendInt64((i / kProbeRunLen) * 7);
    }
    storage::ByteWriter writer;
    storage::IntBlockStats stats;
    const uint8_t tag = storage::EncodeIntPayload(col, &writer, &stats);
    CLY_CHECK(tag == storage::kEncRle);
    payload = writer.Release();
    CLY_CHECK(storage::ParseIntPayload(payload.data(), payload.size(),
                                       kProbeRows, TypeKind::kInt64, tag,
                                       &view)
                  .ok());
    for (int64_t key = 0; key < (kProbeRows / kProbeRunLen) * 7; key += 21) {
      keys.insert(key);
    }
  }

  std::vector<uint8_t> payload;
  storage::IntBlockView view;
  std::unordered_set<int64_t> keys;
};

RleProbeFixture& ProbeFixture() {
  static RleProbeFixture* const kFixture = new RleProbeFixture();
  return *kFixture;
}

void BM_RleDecodeThenProbe(benchmark::State& state) {
  RleProbeFixture& f = ProbeFixture();
  ColumnVector decoded(TypeKind::kInt64);
  std::vector<uint8_t> hits(kProbeRows);
  for (auto _ : state) {
    decoded.Clear();
    storage::DecodeIntView(f.view, TypeKind::kInt64, &decoded);
    const std::vector<int64_t>& vals = decoded.i64();
    for (uint32_t i = 0; i < kProbeRows; ++i) {
      hits[i] = f.keys.count(vals[i]) > 0;
    }
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * kProbeRows);
}

void BM_RleRunProbe(benchmark::State& state) {
  RleProbeFixture& f = ProbeFixture();
  std::vector<uint8_t> hits(kProbeRows);
  for (auto _ : state) {
    uint32_t i = 0;
    for (uint32_t r = 0; r < f.view.nruns; ++r) {
      const uint8_t hit = f.keys.count(f.view.run_values[r]) > 0;
      std::fill_n(hits.data() + i, f.view.run_lengths[r], hit);
      i += f.view.run_lengths[r];
    }
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetItemsProcessed(state.iterations() * kProbeRows);
}

BENCHMARK(BM_RleDecodeThenProbe)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RleRunProbe)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace clydesdale
