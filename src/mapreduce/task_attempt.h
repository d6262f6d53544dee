#ifndef CLYDESDALE_MAPREDUCE_TASK_ATTEMPT_H_
#define CLYDESDALE_MAPREDUCE_TASK_ATTEMPT_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "mapreduce/input_format.h"
#include "mapreduce/job_report.h"

namespace clydesdale {
namespace mr {

/// Lifecycle of one task attempt. Valid transitions:
///
///   kQueued --> kRunning --> kSucceeded
///      |            |
///      |            +------> kFailed      (task code returned an error)
///      +-------------------> kFailed      (killed before launch: job abort)
///
/// Succeeded and failed are terminal. Everything else is rejected.
enum class AttemptState { kQueued, kRunning, kSucceeded, kFailed };

/// Lower-case state name for logs and errors ("queued", "running", ...).
const char* AttemptStateName(AttemptState state);

/// One attempt at executing one task: the unit the JobRunner hands out when
/// a TaskTracker pulls work. Carries the attempt's identity (task index +
/// attempt number), its pull-time placement, and the execution outcome —
/// the attempt-number machinery is what the ROADMAP's retry/speculation
/// items will build on (today every task runs exactly attempt 0).
class TaskAttempt {
 public:
  TaskAttempt(int task_index, int attempt, bool is_map)
      : task_index_(task_index), attempt_(attempt), is_map_(is_map) {}

  int task_index() const { return task_index_; }
  int attempt() const { return attempt_; }
  bool is_map() const { return is_map_; }
  AttemptState state() const { return state_; }
  bool terminal() const {
    return state_ == AttemptState::kSucceeded ||
           state_ == AttemptState::kFailed;
  }

  /// Advances the state machine, rejecting invalid edges (see the diagram
  /// above) with Internal. The caller guards concurrent access; an attempt
  /// is owned by the JobRunner lock between pull and completion.
  Status Transition(AttemptState next);

  /// "m-3.0" / "r-1.2": task kind + index + attempt number.
  std::string Label() const;

  // --- pull-time binding (set when a tracker claims the attempt) -----------
  hdfs::NodeId node = hdfs::kNoNode;
  bool data_local = false;
  /// Map attempts only: the split to process.
  std::shared_ptr<InputSplit> split;

  // --- execution outcome ---------------------------------------------------
  Status status = Status::OK();
  TaskReport report;

 private:
  const int task_index_;
  const int attempt_;
  const bool is_map_;
  AttemptState state_ = AttemptState::kQueued;
};

}  // namespace mr
}  // namespace clydesdale

#endif  // CLYDESDALE_MAPREDUCE_TASK_ATTEMPT_H_
