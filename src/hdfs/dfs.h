#ifndef CLYDESDALE_HDFS_DFS_H_
#define CLYDESDALE_HDFS_DFS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "hdfs/block.h"
#include "hdfs/datanode.h"
#include "hdfs/namenode.h"
#include "hdfs/placement_policy.h"

namespace clydesdale {
namespace hdfs {

class DfsWriter;
class DfsReader;

/// Options for a MiniDfs instance.
struct DfsOptions {
  int num_nodes = 4;
  uint64_t block_size = 8ULL * 1024 * 1024;
  int replication = 3;
  /// Defaults to ColocatingPlacementPolicy when null.
  std::shared_ptr<BlockPlacementPolicy> placement;
};

/// Simulated HDFS cluster: one namenode plus N datanodes, exposing the
/// create/open/stat/delete surface the storage formats and the MapReduce
/// engine need, with full byte accounting for the cost model.
class MiniDfs {
 public:
  explicit MiniDfs(DfsOptions options);

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  int num_nodes() const { return options_.num_nodes; }
  uint64_t block_size() const { return options_.block_size; }
  const DfsOptions& options() const { return options_; }
  NameNode* name_node() { return &name_node_; }

  /// Creates a file for writing. `colocation_group` non-empty requests CIF
  /// colocation; `writer_node` attributes the pipeline's first replica.
  Result<std::unique_ptr<DfsWriter>> Create(
      const std::string& path, const std::string& colocation_group = "",
      NodeId writer_node = kNoNode);

  /// Opens a finalized file for reading. Bytes are attributed to `stats`
  /// (optional) and classified local/remote relative to `reader_node`.
  Result<std::unique_ptr<DfsReader>> Open(const std::string& path,
                                          NodeId reader_node = kNoNode,
                                          IoStats* stats = nullptr) const;

  /// The file's metadata snapshot, shared with every reader of the file.
  Result<std::shared_ptr<const FileInfo>> Stat(const std::string& path) const;
  bool Exists(const std::string& path) const { return name_node_.Exists(path); }
  std::vector<std::string> List(const std::string& prefix) const {
    return name_node_.List(prefix);
  }

  /// Deletes one file and its replicas.
  Status Delete(const std::string& path);
  /// Deletes every file under the prefix; returns the count removed.
  Result<int> DeleteRecursive(const std::string& prefix);

  /// Nodes hosting a replica of the given block of the file (alive only).
  Result<std::vector<NodeId>> BlockLocations(const std::string& path,
                                             int block_index) const;
  /// The alive nodes among `block`'s replicas: BlockLocations for a caller
  /// that already holds the file's snapshot.
  std::vector<NodeId> AliveReplicas(const BlockInfo& block) const;

  /// Fault injection: kills a datanode (its replicas vanish).
  Status KillDataNode(NodeId node);
  /// Restores a killed node with an empty disk.
  Status ReviveDataNode(NodeId node);
  std::vector<NodeId> AliveNodes() const;

  /// Restores the replication factor of every under-replicated block by
  /// copying from a surviving replica; returns bytes copied (network cost).
  Result<uint64_t> ReReplicate();

  /// Convenience helpers for small files (table metadata and the like).
  Status WriteFile(const std::string& path, const std::string& contents,
                   const std::string& colocation_group = "");
  Result<std::string> ReadFileToString(const std::string& path) const;

  /// Cumulative cluster-wide I/O (all readers and writers).
  IoStats TotalIo() const;

  DataNode* data_node(NodeId id) { return nodes_[static_cast<size_t>(id)].get(); }
  const DataNode* data_node(NodeId id) const {
    return nodes_[static_cast<size_t>(id)].get();
  }

 private:
  friend class DfsWriter;
  friend class DfsReader;

  void AccountRead(uint64_t local, uint64_t remote) const;
  void AccountWrite(uint64_t bytes) const;

  DfsOptions options_;
  NameNode name_node_;
  std::vector<std::unique_ptr<DataNode>> nodes_;

  mutable std::atomic<uint64_t> total_local_read_{0};
  mutable std::atomic<uint64_t> total_remote_read_{0};
  mutable std::atomic<uint64_t> total_written_{0};
};

/// Buffered sequential writer: fills a block-sized buffer, then pushes the
/// block through the (simulated) replication pipeline.
class DfsWriter {
 public:
  ~DfsWriter();

  DfsWriter(const DfsWriter&) = delete;
  DfsWriter& operator=(const DfsWriter&) = delete;

  Status Append(const void* data, size_t len);
  Status Append(const std::vector<uint8_t>& bytes) {
    return Append(bytes.data(), bytes.size());
  }
  Status AppendString(const std::string& s) { return Append(s.data(), s.size()); }

  /// Ends the current block even if not full. CIF uses this to align split
  /// boundaries with block boundaries so colocation holds row-range-wise.
  Status CloseBlock();

  /// Flushes and finalizes the file. Must be called; the destructor checks.
  Status Close();

  uint64_t bytes_written() const { return bytes_written_; }
  /// Bytes accumulated toward the current (unflushed) block. Row-aligned
  /// formats consult this to end blocks at record boundaries.
  uint64_t buffered_bytes() const { return buffer_.size(); }

 private:
  friend class MiniDfs;
  DfsWriter(MiniDfs* dfs, std::string path, NodeId writer_node);

  Status FlushBlock();

  MiniDfs* dfs_;
  std::string path_;
  NodeId writer_node_;
  std::vector<uint8_t> buffer_;
  uint64_t bytes_written_ = 0;
  bool closed_ = false;
};

/// Positional + sequential reader over a finalized file.
class DfsReader {
 public:
  /// Reads up to `len` bytes from the current position; returns bytes read
  /// (0 at EOF).
  Result<size_t> Read(void* out, size_t len);

  /// Reads exactly [offset, offset+len) or fails.
  Status PRead(uint64_t offset, void* out, size_t len);

  /// Block `block_index` whole, as the datanode's own immutable buffer: no
  /// copy. Its bytes are accounted exactly as a PRead of the block would
  /// account them.
  Result<BlockBuffer> ReadBlock(int block_index);

  Status Seek(uint64_t offset);
  uint64_t Tell() const { return position_; }
  uint64_t Length() const { return info_->length; }
  const FileInfo& file_info() const { return *info_; }

 private:
  friend class MiniDfs;
  DfsReader(const MiniDfs* dfs, std::shared_ptr<const FileInfo> info,
            NodeId reader_node, IoStats* stats);

  /// Fetches the block covering `offset`, preferring a local replica.
  Status FetchBlock(int block_index);
  /// Charges `bytes` transferred from the cached block.
  void AccountCachedRead(uint64_t bytes);

  const MiniDfs* dfs_;
  /// The namenode's snapshot as of Open; shared, never copied.
  std::shared_ptr<const FileInfo> info_;
  NodeId reader_node_;
  IoStats* stats_;
  uint64_t position_ = 0;

  int cached_block_ = -1;
  bool cached_local_ = false;
  BlockBuffer cached_data_;
};

}  // namespace hdfs
}  // namespace clydesdale

#endif  // CLYDESDALE_HDFS_DFS_H_
