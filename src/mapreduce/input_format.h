#ifndef CLYDESDALE_MAPREDUCE_INPUT_FORMAT_H_
#define CLYDESDALE_MAPREDUCE_INPUT_FORMAT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_conf.h"
#include "mapreduce/task_context.h"
#include "storage/table_format.h"

namespace clydesdale {
namespace mr {

class MrCluster;

/// A schedulable chunk of input. The two concrete shapes are a single
/// storage split and a multi-split packing several of them (MultiCIF).
class InputSplit {
 public:
  virtual ~InputSplit() = default;
  /// Scheduling weight in bytes.
  virtual uint64_t Length() const = 0;
  /// Nodes where the data is local.
  virtual std::vector<hdfs::NodeId> Locations() const = 0;
  /// Constituent storage splits (one for plain splits, k for multi-splits).
  virtual std::vector<const storage::StorageSplit*> Constituents() const = 0;
};

/// Iterator over the key/value records of one split. Keys of table scans are
/// empty rows (Hadoop would use byte offsets; nothing consumes them here).
class RecordReader {
 public:
  virtual ~RecordReader() = default;
  virtual Result<bool> Next(Row* key, Row* value) = 0;
};

/// The Hadoop InputFormat extensibility point (paper §3): split generation
/// plus record reading.
class InputFormat {
 public:
  virtual ~InputFormat() = default;

  virtual Result<std::vector<std::shared_ptr<InputSplit>>> GetSplits(
      MrCluster* cluster, const JobConf& conf) = 0;

  /// Reader over the whole split (all constituents, concatenated).
  virtual Result<std::unique_ptr<RecordReader>> CreateReader(
      MrCluster* cluster, const JobConf& conf, const InputSplit& split,
      TaskContext* context) = 0;

  /// Reader over one constituent storage split. Multi-threaded runners call
  /// this to give each thread its own deserialization stream (MultiCIF,
  /// paper §5.1); single-split formats accept only their own constituent.
  virtual Result<std::unique_ptr<RecordReader>> CreateConstituentReader(
      MrCluster* cluster, const JobConf& conf,
      const storage::StorageSplit& split, TaskContext* context) = 0;
};

// --- Configuration keys consumed by the stock input formats -----------------

/// DFS directory of the input table.
inline constexpr const char kConfInputTable[] = "input.table";
/// Comma-separated projection pushed into the storage layer.
inline constexpr const char kConfInputProjection[] = "input.projection";
/// For MultiTableInputFormat: comma-separated list of table paths. Values are
/// tagged with an int32 table ordinal as field 0.
inline constexpr const char kConfInputTables[] = "input.tables";

/// Scans one stored table (any format); value = (projected) row, key = {}.
/// CreateReader concatenates CreateConstituentReader over the split's
/// constituents, so subclasses override only what differs.
class TableInputFormat : public InputFormat {
 public:
  TableInputFormat() = default;

  Result<std::vector<std::shared_ptr<InputSplit>>> GetSplits(
      MrCluster* cluster, const JobConf& conf) override;
  Result<std::unique_ptr<RecordReader>> CreateReader(
      MrCluster* cluster, const JobConf& conf, const InputSplit& split,
      TaskContext* context) override;
  Result<std::unique_ptr<RecordReader>> CreateConstituentReader(
      MrCluster* cluster, const JobConf& conf,
      const storage::StorageSplit& split, TaskContext* context) override;
};

/// MultiCIF (paper §5.1): packs each node's local CIF splits into one
/// multi-split so a multi-threaded map task can read constituents in
/// parallel without a synchronized RecordReader bottleneck. Locality-aware:
/// only splits sharing a preferred node are packed together.
class MultiCifInputFormat final : public TableInputFormat {
 public:
  MultiCifInputFormat() = default;

  Result<std::vector<std::shared_ptr<InputSplit>>> GetSplits(
      MrCluster* cluster, const JobConf& conf) override;
};

/// Scans several tables; each value row is prefixed with an int32 table
/// ordinal (field 0) so the mapper can tell the sides of a repartition join
/// apart (Hive's tagged common join, paper §6.1).
class MultiTableInputFormat final : public TableInputFormat {
 public:
  MultiTableInputFormat() = default;

  Result<std::vector<std::shared_ptr<InputSplit>>> GetSplits(
      MrCluster* cluster, const JobConf& conf) override;
  Result<std::unique_ptr<RecordReader>> CreateConstituentReader(
      MrCluster* cluster, const JobConf& conf,
      const storage::StorageSplit& split, TaskContext* context) override;
};

/// Plain split holding one storage split.
class StorageInputSplit final : public InputSplit {
 public:
  explicit StorageInputSplit(storage::StorageSplit split)
      : split_(std::move(split)) {}

  uint64_t Length() const override { return split_.length_bytes; }
  std::vector<hdfs::NodeId> Locations() const override {
    return split_.preferred_nodes;
  }
  std::vector<const storage::StorageSplit*> Constituents() const override {
    return {&split_};
  }
  const storage::StorageSplit& storage_split() const { return split_; }

 private:
  storage::StorageSplit split_;
};

/// A bundle of storage splits handled by one map task.
class MultiSplit final : public InputSplit {
 public:
  MultiSplit(std::vector<storage::StorageSplit> splits,
             std::vector<hdfs::NodeId> locations)
      : splits_(std::move(splits)), locations_(std::move(locations)) {}

  uint64_t Length() const override {
    uint64_t total = 0;
    for (const auto& s : splits_) total += s.length_bytes;
    return total;
  }
  std::vector<hdfs::NodeId> Locations() const override { return locations_; }
  std::vector<const storage::StorageSplit*> Constituents() const override {
    std::vector<const storage::StorageSplit*> out;
    out.reserve(splits_.size());
    for (const auto& s : splits_) out.push_back(&s);
    return out;
  }

 private:
  std::vector<storage::StorageSplit> splits_;
  std::vector<hdfs::NodeId> locations_;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_INPUT_FORMAT_H_
