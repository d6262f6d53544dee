#ifndef CLYDESDALE_HDFS_BLOCK_H_
#define CLYDESDALE_HDFS_BLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace clydesdale {
namespace hdfs {

/// Datanode index within the cluster.
using NodeId = int;
/// Globally unique block number handed out by the namenode.
using BlockId = uint64_t;

inline constexpr NodeId kNoNode = -1;

/// Immutable block payload. Replicas share the same buffer — replication in
/// the simulator is a metadata and accounting concept, not a memory copy.
using BlockBuffer = std::shared_ptr<const std::vector<uint8_t>>;

BlockBuffer MakeBlockBuffer(std::vector<uint8_t> bytes);

/// Namenode-side description of one block of a file.
struct BlockInfo {
  BlockId id = 0;
  uint64_t length = 0;
  /// Datanodes holding a replica, in pipeline order.
  std::vector<NodeId> replicas;
};

/// Namenode-side description of a file. The namenode hands it out as an
/// immutable `std::shared_ptr<const FileInfo>` snapshot; later changes to the
/// file never show in a snapshot already handed out.
struct FileInfo {
  std::string path;
  uint64_t length = 0;
  int replication = 0;
  /// Files sharing a non-empty group are co-placed block-by-block by the
  /// colocating placement policy (the CIF contract, paper §4.1).
  std::string colocation_group;
  std::vector<BlockInfo> blocks;
  /// Starting file offset of each block (prefix sums of `blocks[i].length`),
  /// one entry per block, appended with the block.
  std::vector<uint64_t> block_offsets;
};

/// Byte-level I/O accounting attributed to one reader or writer. The
/// discrete-event cost model consumes these numbers.
struct IoStats {
  uint64_t local_bytes_read = 0;
  uint64_t remote_bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_ops = 0;
  /// Wall time spent fetching blocks from datanodes. Accumulated in
  /// nanoseconds so sub-microsecond fetches of small blocks still add up;
  /// consumers report microseconds via read_micros().
  uint64_t read_nanos = 0;

  uint64_t TotalRead() const { return local_bytes_read + remote_bytes_read; }

  /// Rounds up so a task that performed any fetch never reports 0us.
  uint64_t read_micros() const { return (read_nanos + 999) / 1000; }

  void Add(const IoStats& other) {
    local_bytes_read += other.local_bytes_read;
    remote_bytes_read += other.remote_bytes_read;
    bytes_written += other.bytes_written;
    read_ops += other.read_ops;
    read_nanos += other.read_nanos;
  }
};

}  // namespace hdfs
}  // namespace clydesdale

#endif  // CLYDESDALE_HDFS_BLOCK_H_
