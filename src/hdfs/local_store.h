#ifndef CLYDESDALE_HDFS_LOCAL_STORE_H_
#define CLYDESDALE_HDFS_LOCAL_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "hdfs/block.h"

namespace clydesdale {
namespace hdfs {

/// Per-node local disk, as distinct from HDFS: Clydesdale caches dimension
/// tables here (paper §4), and Hadoop's distributed cache materializes
/// broadcast files here. Byte counters feed the cost model.
class LocalStore {
 public:
  explicit LocalStore(NodeId node) : node_(node) {}

  LocalStore(const LocalStore&) = delete;
  LocalStore& operator=(const LocalStore&) = delete;

  NodeId node() const { return node_; }

  Status Write(const std::string& path, std::vector<uint8_t> bytes);
  Status WriteShared(const std::string& path, BlockBuffer bytes);
  Result<BlockBuffer> Read(const std::string& path) const;
  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);
  /// Deletes every file whose path starts with `prefix` and returns how many
  /// were removed (job-scratch GC: "/dcache/<instance>/").
  uint64_t DeleteWithPrefix(const std::string& prefix);
  /// Drops everything (simulates a local disk failure; paper §4: nodes that
  /// lost their dimension copy re-fetch from HDFS).
  void Wipe();

  /// Files currently stored (leak tests).
  size_t file_count() const;

  uint64_t bytes_read() const { return bytes_read_.load(std::memory_order_relaxed); }
  uint64_t bytes_written() const {
    return bytes_written_.load(std::memory_order_relaxed);
  }

 private:
  const NodeId node_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, BlockBuffer> files_;
  mutable std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> bytes_written_{0};
};

}  // namespace hdfs
}  // namespace clydesdale

#endif  // CLYDESDALE_HDFS_LOCAL_STORE_H_
