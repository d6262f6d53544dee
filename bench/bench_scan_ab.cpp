// CIF scan benchmark: SSB-shaped columns (orderdate in chronological runs ->
// RLE, quantity and discount in small domains -> bit-pack, revenue
// incompressible -> plain, ship mode -> dictionary strings) written once and
// scanned three ways: a full scan of every column, an SSB Q1.1-shaped
// predicate (orderdate range AND discount BETWEEN 1 AND 3 AND quantity < 25)
// evaluated in the compressed domain, and the date dimension pushed into
// the scan as a semi-join key filter. The predicate case re-filters
// engine-side with the bound predicates after the scan, matching the
// engine's belt-and-braces re-check, and is checked against a row-by-row
// count of the written rows.
//
// With CLY_SCAN_JSON set, writes the results (rows/s, per-pass wall
// seconds, pruning stats, compression ratio, per-encoding block counts) as
// JSON; run_benches.sh publishes it as BENCH_scan.json and fails if a field
// is missing.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "hdfs/dfs.h"
#include "schema/expr.h"
#include "schema/row_batch.h"
#include "storage/column_codec.h"
#include "storage/scan_spec.h"
#include "storage/table_format.h"

using namespace clydesdale;  // NOLINT(build/namespaces)

namespace {

SchemaPtr FactSchema() {
  return Schema::Make({{"id", TypeKind::kInt32, 4},
                       {"orderdate", TypeKind::kInt64, 8},
                       {"quantity", TypeKind::kInt32, 4},
                       {"discount", TypeKind::kInt32, 4},
                       {"revenue", TypeKind::kInt64, 8},
                       {"mode", TypeKind::kString, 10}});
}

// Rows per distinct orderdate: long chronological runs, the shape a
// rolled-in fact table has, so orderdate blocks are stored as RLE.
constexpr int64_t kRowsPerDate = 4000;

Row MakeRow(int64_t i) {
  static const char* kModes[] = {"AIR",      "RAIL",  "SHIP",    "TRUCK",
                                 "PIPELINE", "BARGE", "COURIER", "DRONE"};
  const uint64_t h = static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull;
  return Row({Value(static_cast<int32_t>(i)),
              Value(INT64_C(19920101) + i / kRowsPerDate),
              Value(static_cast<int32_t>(1 + h % 50)),
              Value(static_cast<int32_t>((h >> 8) % 11)),
              Value(static_cast<int64_t>(h)),  // incompressible: stays plain
              Value(kModes[i % 8])});
}

storage::TableDesc WriteTable(hdfs::MiniDfs* dfs, const std::string& path,
                              int64_t rows, int64_t rows_per_split) {
  storage::TableDesc desc;
  desc.path = path;
  desc.format = storage::kFormatCif;
  desc.schema = FactSchema();
  desc.rows_per_split = static_cast<uint64_t>(rows_per_split);
  auto writer = storage::OpenTableWriter(dfs, desc);
  CLY_CHECK(writer.ok());
  for (int64_t i = 0; i < rows; ++i) {
    CLY_CHECK_OK((*writer)->Append(MakeRow(i)));
  }
  CLY_CHECK_OK((*writer)->Close());
  auto loaded = storage::LoadTableDesc(*dfs, path);
  CLY_CHECK(loaded.ok());
  return *loaded;
}

/// One full pass over the table; returns the number of surviving rows.
/// `engine_preds`, when non-empty, are applied batch-wise after the scan —
/// the engine-side re-check.
int64_t ScanPass(const hdfs::MiniDfs& dfs, const storage::TableDesc& desc,
                 const std::vector<storage::StorageSplit>& splits,
                 const storage::ScanOptions& base,
                 const std::vector<const BoundPredicate*>& engine_preds,
                 storage::ScanStats* stats) {
  int64_t rows_out = 0;
  std::vector<uint8_t> sel;
  for (const storage::StorageSplit& split : splits) {
    storage::ScanOptions options = base;
    options.scan_stats = stats;
    auto reader = storage::OpenSplitBatchReader(dfs, desc, split, options);
    CLY_CHECK(reader.ok());
    RowBatch batch((*reader)->output_schema());
    while (true) {
      auto more = (*reader)->NextBatch(&batch, 4096);
      CLY_CHECK(more.ok());
      if (!*more) break;
      const int64_t n = batch.num_rows();
      if (engine_preds.empty()) {
        rows_out += n;
        continue;
      }
      sel.assign(static_cast<size_t>(n), 1);
      for (const BoundPredicate* pred : engine_preds) {
        pred->EvalBatch(batch, &sel);
      }
      for (int64_t i = 0; i < n; ++i) rows_out += sel[static_cast<size_t>(i)];
    }
  }
  return rows_out;
}

/// Hash-set membership filter standing in for a built dimension hash table
/// (the engine wraps DimHashTables in exactly this shape to push the
/// semi-join below the scan). Costs one hash probe per Contains, like the
/// real thing.
class SetKeyFilter final : public storage::ScanKeyFilter {
 public:
  explicit SetKeyFilter(std::unordered_set<int64_t> keys)
      : keys_(std::move(keys)) {
    for (int64_t k : keys_) {
      lo_ = std::min(lo_, k);
      hi_ = std::max(hi_, k);
    }
  }
  bool Contains(int64_t key) const override { return keys_.count(key) > 0; }
  bool RangeMightMatch(int64_t lo, int64_t hi) const override {
    return !keys_.empty() && !(hi < lo_ || lo > hi_);
  }

 private:
  std::unordered_set<int64_t> keys_;
  int64_t lo_ = INT64_MAX;
  int64_t hi_ = INT64_MIN;
};

struct CaseResult {
  double wall_seconds = 0;   // per pass
  double rows_per_sec = 0;   // table rows scanned per second
  int64_t rows_out = 0;
  storage::ScanStats stats;  // last pass
};

CaseResult TimeCase(const hdfs::MiniDfs& dfs, const storage::TableDesc& desc,
                    const std::vector<storage::StorageSplit>& splits,
                    int64_t table_rows, const storage::ScanOptions& base,
                    const std::vector<const BoundPredicate*>& engine_preds) {
  CaseResult result;
  // Warmup: page in the column files and settle allocators.
  ScanPass(dfs, desc, splits, base, engine_preds, nullptr);
  Stopwatch sw;
  int passes = 0;
  do {
    result.stats = storage::ScanStats();
    result.rows_out =
        ScanPass(dfs, desc, splits, base, engine_preds, &result.stats);
    ++passes;
  } while (sw.ElapsedSeconds() < 0.3);
  const double elapsed = sw.ElapsedSeconds();
  result.wall_seconds = elapsed / passes;
  result.rows_per_sec = static_cast<double>(table_rows) * passes / elapsed;
  return result;
}

void PrintCase(const char* name, const CaseResult& r) {
  std::printf("%-16s %10.2f Mrows/s  %10lld rows out  %6llu blocks skipped  "
              "%10llu rows pruned\n",
              name, r.rows_per_sec / 1e6, static_cast<long long>(r.rows_out),
              static_cast<unsigned long long>(r.stats.blocks_skipped),
              static_cast<unsigned long long>(r.stats.rows_pruned));
}

void EmitCase(std::FILE* out, const char* name, const CaseResult& r) {
  std::fprintf(out,
               "  \"%s\": {\"rows_per_sec\": %.1f, \"wall_seconds\": %.6f, "
               "\"rows_out\": %lld, \"blocks_skipped\": %llu, "
               "\"rows_pruned\": %llu},\n",
               name, r.rows_per_sec, r.wall_seconds,
               static_cast<long long>(r.rows_out),
               static_cast<unsigned long long>(r.stats.blocks_skipped),
               static_cast<unsigned long long>(r.stats.rows_pruned));
}

}  // namespace

int main() {
  SetLogThreshold(LogLevel::kWarning);
  const char* sf_env = std::getenv("CLY_BENCH_SF");
  const double sf = sf_env != nullptr ? std::atof(sf_env) : 0.02;
  const int64_t rows =
      std::max<int64_t>(20000, static_cast<int64_t>(sf * 2e6));
  // At least ~20 splits so zone-map skipping has blocks to refute even at
  // smoke scale; capped so the widest column (8 B/row plus the footer)
  // stays within one 256 KiB DFS block per split.
  const int64_t rows_per_split =
      std::min<int64_t>(16384, std::max<int64_t>(1024, rows / 32));

  hdfs::DfsOptions dfs_options;
  dfs_options.num_nodes = 2;
  dfs_options.block_size = 256 * 1024;
  dfs_options.replication = 1;
  hdfs::MiniDfs dfs(dfs_options);

  const storage::TableDesc desc =
      WriteTable(&dfs, "/scan_ab", rows, rows_per_split);
  auto splits = storage::ListTableSplits(dfs, desc);
  CLY_CHECK(splits.ok());

  // SSB Q1.1 shape: a half-table orderdate range (zone-refutable) AND two
  // small-domain leaves evaluated per packed code / per run.
  const int64_t date_hi = INT64_C(19920101) + (rows / 2) / kRowsPerDate;
  std::vector<Predicate::Ptr> q11 = {
      Predicate::Le("orderdate", Value(date_hi)),
      Predicate::Between("discount", Value(int32_t{1}), Value(int32_t{3})),
      Predicate::Lt("quantity", Value(int32_t{25})),
  };
  auto q11_spec = std::make_shared<storage::ScanSpec>();
  for (const auto& leaf : q11) q11_spec->conjuncts.push_back(leaf);

  storage::ScanOptions full;
  storage::ScanOptions q11_pushed;
  q11_pushed.projection = {"orderdate", "quantity", "discount", "revenue"};
  q11_pushed.scan_spec = q11_spec;

  // SSB's date filter as the engine really executes it: the date-dimension
  // hash table pushed into the scan as a semi-join key filter on the fact's
  // orderdate FK. Every other date is a member, so zone maps cannot refute
  // whole blocks and the probing granularity is what's measured — one probe
  // per run on the RLE orderdate blocks.
  const int64_t num_dates = (rows + kRowsPerDate - 1) / kRowsPerDate;
  std::unordered_set<int64_t> member_dates;
  for (int64_t d = 0; d < num_dates; d += 2) {
    member_dates.insert(INT64_C(19920101) + d);
  }
  auto keyfilter_spec = std::make_shared<storage::ScanSpec>();
  keyfilter_spec->key_filters.push_back(
      {"orderdate", std::make_shared<SetKeyFilter>(std::move(member_dates))});
  storage::ScanOptions keyfilter_pushed;
  keyfilter_pushed.projection = {"orderdate", "revenue"};
  keyfilter_pushed.scan_spec = keyfilter_spec;

  auto bound_one = [](const Predicate::Ptr& leaf, const SchemaPtr& schema) {
    auto bound = leaf->Bind(*schema);
    CLY_CHECK(bound.ok());
    return std::move(*bound);
  };
  const auto q11_schema = Schema::Make({{"orderdate", TypeKind::kInt64, 8},
                                        {"quantity", TypeKind::kInt32, 4},
                                        {"discount", TypeKind::kInt32, 4},
                                        {"revenue", TypeKind::kInt64, 8}});
  std::vector<std::shared_ptr<const BoundPredicate>> q11_bound_storage;
  std::vector<const BoundPredicate*> q11_bound;
  for (const auto& leaf : q11) {
    q11_bound_storage.push_back(bound_one(leaf, q11_schema));
    q11_bound.push_back(q11_bound_storage.back().get());
  }

  // The oracle for the predicate case: the written rows the Q1.1 leaves
  // accept, counted row by row.
  std::vector<std::shared_ptr<const BoundPredicate>> q11_row_bound;
  for (const auto& leaf : q11) {
    q11_row_bound.push_back(bound_one(leaf, desc.schema));
  }
  int64_t q11_expected = 0;
  for (int64_t i = 0; i < rows; ++i) {
    const Row row = MakeRow(i);
    bool keep = true;
    for (const auto& pred : q11_row_bound) keep = keep && pred->Eval(row);
    q11_expected += keep;
  }

  std::printf("CIF scan: %lld rows, %zu splits\n\n",
              static_cast<long long>(rows), splits->size());

  const std::vector<const BoundPredicate*> no_preds;
  const CaseResult scan_full =
      TimeCase(dfs, desc, *splits, rows, full, no_preds);
  const CaseResult scan_pred =
      TimeCase(dfs, desc, *splits, rows, q11_pushed, q11_bound);
  const CaseResult scan_key =
      TimeCase(dfs, desc, *splits, rows, keyfilter_pushed, no_preds);

  // The pushed-down scans must surface exactly the rows the written data
  // holds; anything else is a correctness bug, not a speedup.
  CLY_CHECK(scan_full.rows_out == rows);
  CLY_CHECK(scan_pred.rows_out == q11_expected && q11_expected > 0);
  CLY_CHECK(scan_key.rows_out > 0 && scan_key.rows_out < rows);

  // Observed compression of the full scan (every block loaded).
  const storage::ScanStats& enc = scan_full.stats;
  CLY_CHECK(enc.bytes_encoded > 0);
  const double ratio = static_cast<double>(enc.bytes_raw) /
                       static_cast<double>(enc.bytes_encoded);

  PrintCase("full scan", scan_full);
  PrintCase("Q1.1 predicate", scan_pred);
  PrintCase("keyfilter", scan_key);
  std::printf("\ncompression: %.2fx (%llu encoded / %llu raw bytes); "
              "blocks:",
              ratio, static_cast<unsigned long long>(enc.bytes_encoded),
              static_cast<unsigned long long>(enc.bytes_raw));
  for (int e = 0; e < storage::kEncCount; ++e) {
    std::printf(" %s=%llu", storage::EncodingName(static_cast<uint8_t>(e)),
                static_cast<unsigned long long>(enc.blocks_by_encoding[e]));
  }
  std::printf("\n");

  const char* json_path = std::getenv("CLY_SCAN_JSON");
  if (json_path != nullptr && json_path[0] != '\0') {
    std::FILE* out = std::fopen(json_path, "w");
    CLY_CHECK(out != nullptr);
    std::fprintf(out, "{\n  \"rows\": %lld,\n  \"splits\": %zu,\n",
                 static_cast<long long>(rows), splits->size());
    EmitCase(out, "scan_encoded_full", scan_full);
    EmitCase(out, "scan_encoded_predicate", scan_pred);
    EmitCase(out, "scan_encoded_keyfilter", scan_key);
    std::fprintf(out, "  \"compression_ratio\": %.3f,\n  \"encodings\": {",
                 ratio);
    for (int e = 0; e < storage::kEncCount; ++e) {
      std::fprintf(out, "%s\"%s\": %llu", e == 0 ? "" : ", ",
                   storage::EncodingName(static_cast<uint8_t>(e)),
                   static_cast<unsigned long long>(enc.blocks_by_encoding[e]));
    }
    std::fprintf(out,
                 "},\n  \"bytes_encoded\": %llu,\n  \"bytes_raw\": %llu\n}\n",
                 static_cast<unsigned long long>(enc.bytes_encoded),
                 static_cast<unsigned long long>(enc.bytes_raw));
    std::fclose(out);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
