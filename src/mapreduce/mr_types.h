#ifndef CLYDESDALE_MAPREDUCE_MR_TYPES_H_
#define CLYDESDALE_MAPREDUCE_MR_TYPES_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "schema/row.h"

namespace clydesdale {
namespace mr {

class TaskContext;

/// A key/value record flowing between map and reduce.
struct KeyValue {
  Row key;
  Row value;
};

/// Sink for map or reduce output.
class OutputCollector {
 public:
  virtual ~OutputCollector() = default;
  virtual Status Collect(const Row& key, const Row& value) = 0;
};

/// User map function. One instance per map task (or per thread inside a
/// multi-threaded runner); Setup runs before the first record.
class Mapper {
 public:
  virtual ~Mapper() = default;
  virtual Status Setup(TaskContext* context) {
    (void)context;
    return Status::OK();
  }
  virtual Status Map(const Row& key, const Row& value, TaskContext* context,
                     OutputCollector* out) = 0;
  virtual Status Cleanup(TaskContext* context, OutputCollector* out) {
    (void)context;
    (void)out;
    return Status::OK();
  }
};

/// User reduce function; also used as a combiner when configured so.
class Reducer {
 public:
  virtual ~Reducer() = default;
  virtual Status Setup(TaskContext* context) {
    (void)context;
    return Status::OK();
  }
  virtual Status Reduce(const Row& key, const std::vector<Row>& values,
                        TaskContext* context, OutputCollector* out) = 0;
  virtual Status Cleanup(TaskContext* context, OutputCollector* out) {
    (void)context;
    (void)out;
    return Status::OK();
  }
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_MR_TYPES_H_
