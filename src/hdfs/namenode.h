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
///
/// Each file's metadata is one FileInfo, handed to readers as a
/// `shared_ptr<const FileInfo>` snapshot: the mutex covers only the map
/// lookup and the refcount bump, never a copy of the block list. Changes are
/// copy-on-write: a FileInfo no reader has been handed is changed in place
/// (so the writer's block appends stay O(1)); a handed-out one is copied
/// first and the copy replaces it, so a snapshot never changes.
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

  /// The file's current metadata snapshot (shared, never copied).
  Result<std::shared_ptr<const FileInfo>> Stat(const std::string& path) const;
  bool Exists(const std::string& path) const;
  Status Delete(const std::string& path);
  /// All finalized file paths with the given prefix, sorted.
  std::vector<std::string> List(const std::string& prefix) const;

  /// Replaces the replica list of one block (used by re-replication).
  Status UpdateReplicas(const std::string& path, int block_index,
                        std::vector<NodeId> replicas);

 private:
  struct FileState {
    std::shared_ptr<FileInfo> info;
    bool finalized = false;
    /// Set when Stat hands `info` out. `info.use_count() == 1` would not do:
    /// it is a relaxed load, so it does not order a reader's last accesses
    /// before an in-place write (why shared_ptr::unique() was removed).
    mutable bool handed_out = false;
  };

  /// `state`'s FileInfo, ready to change: itself if never handed out, else a
  /// copy that replaces it. Call with `mu_` held.
  static FileInfo* MutableInfo(FileState* state);

  const int num_nodes_;
  std::shared_ptr<BlockPlacementPolicy> policy_;
  mutable std::mutex mu_;
  std::map<std::string, FileState> files_;
  BlockId next_block_id_ = 1;
};

}  // namespace hdfs
}  // namespace clydesdale

#endif  // CLYDESDALE_HDFS_NAMENODE_H_
