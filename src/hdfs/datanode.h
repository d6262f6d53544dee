#ifndef CLYDESDALE_HDFS_DATANODE_H_
#define CLYDESDALE_HDFS_DATANODE_H_

#include <mutex>
#include <unordered_map>

#include "common/status.h"
#include "hdfs/block.h"

namespace clydesdale {
namespace hdfs {

/// Holds block replicas for one simulated node. Thread-safe.
class DataNode {
 public:
  explicit DataNode(NodeId id) : id_(id) {}

  DataNode(const DataNode&) = delete;
  DataNode& operator=(const DataNode&) = delete;

  NodeId id() const { return id_; }

  bool alive() const;
  /// Simulates a node crash: all hosted replicas become unavailable.
  void Kill();
  /// Brings the node back empty (fresh disk), as after a replacement.
  void Revive();

  Status StoreReplica(BlockId block, BlockBuffer data);
  Result<BlockBuffer> ReadReplica(BlockId block) const;
  bool HasReplica(BlockId block) const;
  void DropReplica(BlockId block);

  /// Total bytes of replica data hosted.
  uint64_t StoredBytes() const;

 private:
  const NodeId id_;
  mutable std::mutex mu_;
  bool alive_ = true;
  std::unordered_map<BlockId, BlockBuffer> replicas_;
};

}  // namespace hdfs
}  // namespace clydesdale

#endif  // CLYDESDALE_HDFS_DATANODE_H_
