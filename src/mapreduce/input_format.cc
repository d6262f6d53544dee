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

/// Adapts a storage RowReader to the MapReduce record model. Owns the
/// ScanStats the reader fills as it streams (a CIF split decodes batch by
/// batch in Next()), and when the split is exhausted folds them into the
/// counters and adds the split's scan node to the attempt's profile.
class TableRecordReader final : public RecordReader {
 public:
  TableRecordReader(std::unique_ptr<storage::ScanStats> scan_stats,
                    int32_t tag, std::string name, TaskContext* context)
      : scan_stats_(std::move(scan_stats)),
        tag_(tag),
        name_(std::move(name)),
        context_(context) {}

  void Start(std::unique_ptr<storage::RowReader> reader,
             const obs::Timer& open_timer) {
    reader_ = std::move(reader);
    open_wall_ns_ = static_cast<uint64_t>(open_timer.wall_ns());
    open_cpu_ns_ = static_cast<uint64_t>(open_timer.cpu_ns());
  }

  Result<bool> Next(Row* key, Row* value) override {
    CLY_ASSIGN_OR_RETURN(bool more, reader_->Next(&scratch_));
    if (!more) {
      if (context_ != nullptr) {
        AddCifScanCounters(*scan_stats_, context_->counters());
        obs::OperatorProfile scan = ScanProfileNode(
            name_, *scan_stats_, open_wall_ns_, open_cpu_ns_);
        scan.rows_out = rows_;  // every format, CIF or not
        context_->AddProfileOperator(std::move(scan));
        context_ = nullptr;
      }
      return false;
    }
    ++rows_;
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
  std::unique_ptr<storage::ScanStats> scan_stats_;
  std::unique_ptr<storage::RowReader> reader_;
  int32_t tag_;
  std::string name_;
  uint64_t open_wall_ns_ = 0;
  uint64_t open_cpu_ns_ = 0;
  uint64_t rows_ = 0;
  Row scratch_;
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
  // Charge the reader's decode scratch and batch to the attempt's tracker.
  options.mem_reporter = context->mem_tracker();
  auto scan_stats = std::make_unique<storage::ScanStats>();
  options.scan_stats = scan_stats.get();
  auto record_reader = std::make_unique<TableRecordReader>(
      std::move(scan_stats), tag, StrCat("scan:", split.table_path), context);
  // The open window: for CIF it reads the column blocks and their zone
  // maps; decoding happens batch by batch in Next(), as it does for the
  // row formats.
  obs::Timer open_timer;
  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::RowReader> reader,
      storage::OpenSplitRowReader(*cluster->dfs(), desc, split, options));
  open_timer.Stop();
  record_reader->Start(std::move(reader), open_timer);
  return std::unique_ptr<RecordReader>(std::move(record_reader));
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
