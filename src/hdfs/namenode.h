#ifndef CLYDESDALE_HDFS_NAMENODE_H_
#define CLYDESDALE_HDFS_NAMENODE_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "hdfs/block.h"
#include "hdfs/placement_policy.h"

namespace clydesdale {
namespace hdfs {

/// File-system metadata master: the path -> blocks -> replica-locations map,
/// block id allocation, and placement policy invocation. Thread-safe.
class NameNode {
 public:
  NameNode(int num_nodes, std::shared_ptr<BlockPlacementPolicy> policy);

  /// Registers a new, empty file. Fails with AlreadyExists on collision.
  Status CreateFile(const std::string& path, int replication,
                    const std::string& colocation_group);

  /// Allocates the next block for `path` and chooses its replica set.
  /// `alive_nodes` is supplied by the DFS facade (which owns the datanodes).
  Result<BlockInfo> AllocateBlock(const std::string& path, uint64_t length,
                                  const std::vector<NodeId>& alive_nodes,
                                  NodeId writer_node);

  /// Marks a file complete (no further blocks may be added).
  Status FinalizeFile(const std::string& path);

  Result<FileInfo> Stat(const std::string& path) const;
  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);
  /// All finalized file paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  /// Replaces the replica list of one block (used by re-replication).
  Status UpdateReplicas(const std::string& path, int block_index,
                        std::vector<NodeId> replicas);

 private:
  struct FileState {
    FileInfo info;
    bool finalized = false;
  };

  const int num_nodes_;
  std::shared_ptr<BlockPlacementPolicy> policy_;
  mutable std::mutex mu_;
  std::map<std::string, FileState> files_;
  BlockId next_block_id_ = 1;
};

}  // namespace hdfs
}  // namespace clydesdale

#endif  // CLYDESDALE_HDFS_NAMENODE_H_
