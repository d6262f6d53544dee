#ifndef CLYDESDALE_MAPREDUCE_OUTPUT_FORMAT_H_
#define CLYDESDALE_MAPREDUCE_OUTPUT_FORMAT_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapreduce/job_conf.h"
#include "mapreduce/mr_types.h"

namespace clydesdale {
namespace mr {

class MrCluster;

/// The Hadoop OutputFormat extensibility point: turns final key/value pairs
/// into an on-disk (or in-memory) artifact. Writers here are created once
/// per job; reduce tasks (or a map-only job's map tasks) write concurrently,
/// each naming itself by task index.
class OutputFormat {
 public:
  virtual ~OutputFormat() = default;

  /// Called once before tasks emit, with the number of tasks that will
  /// write (reduce tasks, or map tasks for a map-only job).
  virtual Status Open(MrCluster* cluster, const JobConf& conf,
                      int num_tasks) = 0;

  /// Emits one final record from task `task` (in [0, num_tasks)).
  /// Thread-safe: different tasks, and the threads of one task, may write
  /// at once.
  virtual Status Write(int task, const Row& key, const Row& value) = 0;

  /// Called once after all tasks finish; finalizes the artifact.
  virtual Status Commit(MrCluster* cluster, const JobConf& conf) = 0;

  /// Collected result rows, for formats that keep them in memory (empty for
  /// on-disk formats). Valid after Commit; moves the rows out.
  virtual std::vector<Row> TakeRows() { return {}; }
};

/// `key ++ value` rows buffered per emitting task and handed over in task
/// order, so a job's output order does not depend on which task finished
/// first. Each task's buffer has its own lock: different tasks never
/// contend; only the threads of one multithreaded map task share one.
class TaskRowBuffers {
 public:
  void Reset(int num_tasks);
  Status Append(int task, const Row& key, const Row& value);
  /// Every buffered row, task 0's first; empties the buffers.
  std::vector<Row> TakeInTaskOrder();

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Row> rows;
  };
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// --- Configuration keys ------------------------------------------------------

/// For TableOutputFormat: DFS directory of the result table.
inline constexpr const char kConfOutputTable[] = "output.table";
/// For TableOutputFormat: comma-separated "name:type" column declarations of
/// the emitted key followed by value fields, e.g. "d_year:int32,rev:int64".
inline constexpr const char kConfOutputColumns[] = "output.columns";
/// For TableOutputFormat: storage format of the result (default binrow).
inline constexpr const char kConfOutputFormat[] = "output.format";

/// Collects `key ++ value` rows in memory; the job result for queries whose
/// final answer returns to the client.
class MemoryOutputFormat final : public OutputFormat {
 public:
  Status Open(MrCluster* cluster, const JobConf& conf, int num_tasks) override;
  Status Write(int task, const Row& key, const Row& value) override;
  Status Commit(MrCluster* cluster, const JobConf& conf) override;
  std::vector<Row> TakeRows() override;

 private:
  TaskRowBuffers rows_;
};

/// Writes `key ++ value` rows as a stored table (Hive's inter-job
/// intermediate results; paper §6.3 notes these round-trips through HDFS).
class TableOutputFormat final : public OutputFormat {
 public:
  Status Open(MrCluster* cluster, const JobConf& conf, int num_tasks) override;
  Status Write(int task, const Row& key, const Row& value) override;
  Status Commit(MrCluster* cluster, const JobConf& conf) override;

 private:
  TaskRowBuffers rows_;  // written in task order at Commit
};

/// Parses a kConfOutputColumns declaration into a schema.
Result<SchemaPtr> ParseColumnsDecl(const std::string& decl);

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_OUTPUT_FORMAT_H_
