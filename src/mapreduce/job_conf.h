#ifndef CLYDESDALE_MAPREDUCE_JOB_CONF_H_
#define CLYDESDALE_MAPREDUCE_JOB_CONF_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapreduce/mr_types.h"

namespace clydesdale {

namespace mr {

class InputFormat;
class OutputFormat;
class MapRunner;

/// Job configuration: string properties plus typed component factories (the
/// C++ stand-in for Hadoop's reflective class-name configuration). Factories
/// are invoked once per task, so user components may keep per-task state.
class JobConf {
 public:
  JobConf() = default;

  // --- string properties ----------------------------------------------------
  void Set(const std::string& key, const std::string& value) {
    conf_[key] = value;
  }
  void SetInt(const std::string& key, int64_t value);
  void SetBool(const std::string& key, bool value);
  std::string Get(const std::string& key, const std::string& def = "") const;
  int64_t GetInt(const std::string& key, int64_t def = 0) const;
  bool GetBool(const std::string& key, bool def = false) const;
  /// Comma-separated list property.
  std::vector<std::string> GetList(const std::string& key) const;
  void SetList(const std::string& key, const std::vector<std::string>& items);
  bool Has(const std::string& key) const { return conf_.count(key) > 0; }

  // --- job shape -------------------------------------------------------------
  std::string job_name = "job";
  int num_reduce_tasks = 1;
  /// Hadoop JVM-reuse analogue: consecutive tasks of this job on a node share
  /// TaskContext::GetOrCreateShared state (paper §5.2).
  bool jvm_reuse = false;
  /// Capacity-scheduler memory hint: at most one concurrent map task of this
  /// job per node (paper §5.2, requirement 1).
  bool single_task_per_node = false;
  /// DFS paths broadcast to every node's local disk before the job starts
  /// (Hive's mapjoin hash-table dissemination path, paper §6.1).
  std::vector<std::string> distributed_cache;

  // --- component factories ----------------------------------------------------
  using MapperFactory = std::function<std::unique_ptr<Mapper>()>;
  using ReducerFactory = std::function<std::unique_ptr<Reducer>()>;
  using InputFormatFactory = std::function<std::unique_ptr<InputFormat>()>;
  using OutputFormatFactory = std::function<std::unique_ptr<OutputFormat>()>;
  using MapRunnerFactory = std::function<std::unique_ptr<MapRunner>()>;

  MapperFactory mapper_factory;
  ReducerFactory reducer_factory;
  /// Optional; runs on sorted map output before the shuffle.
  ReducerFactory combiner_factory;
  InputFormatFactory input_format_factory;
  OutputFormatFactory output_format_factory;
  /// Defaults to the single-threaded DefaultMapRunner when unset.
  MapRunnerFactory map_runner_factory;

 private:
  std::map<std::string, std::string> conf_;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_JOB_CONF_H_
