#include "mapreduce/input_format.h"

#include <map>

#include "common/strings.h"
#include "mapreduce/engine.h"
#include "obs/query_profile.h"
#include "obs/trace.h"

namespace clydesdale {
namespace mr {

namespace {

/// Reads the constituents of a split one after another, as the stock Hadoop
/// record loop would (a single, serialized stream).
class ConcatRecordReader final : public RecordReader {
 public:
  ConcatRecordReader(std::vector<std::unique_ptr<RecordReader>> readers)
      : readers_(std::move(readers)) {}

  Result<bool> Next(Row* key, Row* value) override {
    while (current_ < readers_.size()) {
      CLY_ASSIGN_OR_RETURN(bool more, readers_[current_]->Next(key, value));
      if (more) return true;
      ++current_;
    }
    return false;
  }

 private:
  std::vector<std::unique_ptr<RecordReader>> readers_;
  size_t current_ = 0;
};

/// Adapts a storage RowReader to the MapReduce record model. Counts the rows
/// it streams and adds the split's scan node to the attempt's profile when
/// the split is exhausted: row-format tables decode in Next(), so only then
/// is the row count known.
class TableRecordReader final : public RecordReader {
 public:
  TableRecordReader(std::unique_ptr<storage::RowReader> reader, int32_t tag,
                    obs::OperatorProfile scan, TaskContext* context)
      : reader_(std::move(reader)),
        tag_(tag),
        scan_(std::move(scan)),
        context_(context) {}

  Result<bool> Next(Row* key, Row* value) override {
    CLY_ASSIGN_OR_RETURN(bool more, reader_->Next(&scratch_));
    if (!more) {
      if (context_ != nullptr) {
        context_->AddProfileOperator(std::move(scan_));
        context_ = nullptr;
      }
      return false;
    }
    ++scan_.rows_out;
    key->Clear();
    if (tag_ >= 0) {
      value->Clear();
      value->Reserve(scratch_.size() + 1);
      value->Append(Value(tag_));
      value->Extend(scratch_);
    } else {
      *value = std::move(scratch_);
    }
    return true;
  }

 private:
  std::unique_ptr<storage::RowReader> reader_;
  int32_t tag_;
  Row scratch_;
  obs::OperatorProfile scan_;
  /// Null once the scan node has been added.
  TaskContext* context_;
};

Result<std::vector<std::shared_ptr<InputSplit>>> SplitsForTable(
    MrCluster* cluster, const std::string& table_path) {
  CLY_ASSIGN_OR_RETURN(storage::TableDesc desc, cluster->GetTable(table_path));
  CLY_ASSIGN_OR_RETURN(std::vector<storage::StorageSplit> splits,
                       storage::ListTableSplits(*cluster->dfs(), desc));
  std::vector<std::shared_ptr<InputSplit>> out;
  out.reserve(splits.size());
  for (storage::StorageSplit& s : splits) {
    out.push_back(std::make_shared<StorageInputSplit>(std::move(s)));
  }
  return out;
}

Result<std::unique_ptr<RecordReader>> ReaderForStorageSplit(
    MrCluster* cluster, std::vector<std::string> projection,
    const storage::StorageSplit& split, TaskContext* context, int32_t tag) {
  CLY_ASSIGN_OR_RETURN(storage::TableDesc desc,
                       cluster->GetTable(split.table_path));
  storage::ScanOptions options;
  options.projection = std::move(projection);
  options.reader_node = context->node();
  options.stats = context->io_stats();
  // Charge decode arenas to the attempt's tracker; the shared_ptr-deleter
  // wrapper keeps the charge alive exactly as long as the arena itself, even
  // when a block's string views outlive this reader.
  options.mem_reporter = context->mem_tracker();
  // CIF splits load eagerly at open, so the stack-local stats are complete
  // (and safe to drop) as soon as the reader exists.
  storage::ScanStats scan_stats;
  options.scan_stats = &scan_stats;
  // The open window covers the whole CIF load (a split decodes at open);
  // for row-format tables that stream through Next(), the node still pins
  // the scan in the plan tree even though its timings stay near zero.
  obs::Timer open_timer;
  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::RowReader> reader,
      storage::OpenSplitRowReader(*cluster->dfs(), desc, split, options));
  open_timer.Stop();
  AddCifScanCounters(scan_stats, context->counters());
  obs::OperatorProfile scan = ScanProfileNode(
      StrCat("scan:", split.table_path), scan_stats,
      static_cast<uint64_t>(open_timer.wall_ns()),
      static_cast<uint64_t>(open_timer.cpu_ns()));
  scan.rows_out = 0;  // the reader counts the rows it streams
  return std::unique_ptr<RecordReader>(
      new TableRecordReader(std::move(reader), tag, std::move(scan), context));
}

}  // namespace

// --- TableInputFormat --------------------------------------------------------

Result<std::vector<std::shared_ptr<InputSplit>>> TableInputFormat::GetSplits(
    MrCluster* cluster, const JobConf& conf) {
  const std::string table = conf.Get(kConfInputTable);
  if (table.empty()) {
    return Status::InvalidArgument("input.table is not set");
  }
  return SplitsForTable(cluster, table);
}

Result<std::unique_ptr<RecordReader>> TableInputFormat::CreateReader(
    MrCluster* cluster, const JobConf& conf, const InputSplit& split,
    TaskContext* context) {
  std::vector<std::unique_ptr<RecordReader>> readers;
  for (const storage::StorageSplit* s : split.Constituents()) {
    CLY_ASSIGN_OR_RETURN(std::unique_ptr<RecordReader> r,
                         CreateConstituentReader(cluster, conf, *s, context));
    readers.push_back(std::move(r));
  }
  return std::unique_ptr<RecordReader>(
      new ConcatRecordReader(std::move(readers)));
}

Result<std::unique_ptr<RecordReader>> TableInputFormat::CreateConstituentReader(
    MrCluster* cluster, const JobConf& conf,
    const storage::StorageSplit& split, TaskContext* context) {
  return ReaderForStorageSplit(cluster, conf.GetList(kConfInputProjection),
                               split, context, /*tag=*/-1);
}

// --- MultiCifInputFormat -----------------------------------------------------

Result<std::vector<std::shared_ptr<InputSplit>>> MultiCifInputFormat::GetSplits(
    MrCluster* cluster, const JobConf& conf) {
  const std::string table = conf.Get(kConfInputTable);
  if (table.empty()) {
    return Status::InvalidArgument("input.table is not set");
  }
  CLY_ASSIGN_OR_RETURN(storage::TableDesc desc, cluster->GetTable(table));
  if (desc.format != storage::kFormatCif) {
    return Status::InvalidArgument(
        StrCat("MultiCIF requires a CIF table; ", table, " is ", desc.format));
  }
  CLY_ASSIGN_OR_RETURN(std::vector<storage::StorageSplit> splits,
                       storage::ListTableSplits(*cluster->dfs(), desc));

  // Bucket splits by their first preferred node; each bucket becomes one
  // multi-split, i.e. one map task per node.
  std::map<hdfs::NodeId, std::vector<storage::StorageSplit>> buckets;
  for (storage::StorageSplit& s : splits) {
    const hdfs::NodeId home =
        s.preferred_nodes.empty() ? hdfs::kNoNode : s.preferred_nodes[0];
    buckets[home].push_back(std::move(s));
  }
  std::vector<std::shared_ptr<InputSplit>> out;
  for (auto& [node, bucket] : buckets) {
    std::vector<hdfs::NodeId> locations;
    if (node != hdfs::kNoNode) locations.push_back(node);
    out.push_back(
        std::make_shared<MultiSplit>(std::move(bucket), std::move(locations)));
  }
  return out;
}

// --- MultiTableInputFormat ---------------------------------------------------

Result<std::vector<std::shared_ptr<InputSplit>>>
MultiTableInputFormat::GetSplits(MrCluster* cluster, const JobConf& conf) {
  const std::vector<std::string> tables = conf.GetList(kConfInputTables);
  if (tables.empty()) {
    return Status::InvalidArgument("input.tables is not set");
  }
  std::vector<std::shared_ptr<InputSplit>> out;
  for (const std::string& table : tables) {
    CLY_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<InputSplit>> splits,
                         SplitsForTable(cluster, table));
    out.insert(out.end(), splits.begin(), splits.end());
  }
  return out;
}

Result<std::unique_ptr<RecordReader>>
MultiTableInputFormat::CreateConstituentReader(
    MrCluster* cluster, const JobConf& conf,
    const storage::StorageSplit& split, TaskContext* context) {
  const std::vector<std::string> tables = conf.GetList(kConfInputTables);
  int32_t tag = -1;
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == split.table_path) {
      tag = static_cast<int32_t>(i);
      break;
    }
  }
  if (tag < 0) {
    return Status::InvalidArgument(
        StrCat("split table ", split.table_path, " not in input.tables"));
  }
  // Projection lists are per-table for multi-table scans: the conf key is
  // "input.projection.<ordinal>".
  return ReaderForStorageSplit(
      cluster, conf.GetList(StrCat(kConfInputProjection, ".", tag)), split,
      context, tag);
}

}  // namespace mr
}  // namespace clydesdale
