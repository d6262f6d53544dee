#ifndef CLYDESDALE_HDFS_PLACEMENT_POLICY_H_
#define CLYDESDALE_HDFS_PLACEMENT_POLICY_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "hdfs/block.h"

namespace clydesdale {
namespace hdfs {

/// Everything a policy may consider when placing one new block.
struct PlacementRequest {
  std::string path;
  std::string colocation_group;
  /// Ordinal of the block within its file.
  int block_index = 0;
  int replication = 3;
  /// Datanodes currently alive, in id order.
  std::vector<NodeId> alive_nodes;
  /// Node issuing the write, or kNoNode for an off-cluster client.
  NodeId writer_node = kNoNode;
};

/// The pluggable HDFS block placement extension point (paper §4.1: CIF
/// "leverages the support for pluggable placement policies in HDFS 21.0").
class BlockPlacementPolicy {
 public:
  virtual ~BlockPlacementPolicy() = default;

  /// Returns `replication` distinct nodes (fewer if the cluster is smaller).
  virtual Result<std::vector<NodeId>> ChooseReplicas(
      const PlacementRequest& req) = 0;
};

/// Stock HDFS behaviour: first replica on the writer node when it is a
/// datanode, remaining replicas on distinct random nodes.
class DefaultPlacementPolicy : public BlockPlacementPolicy {
 public:
  explicit DefaultPlacementPolicy(uint64_t seed = 42) : rng_(seed) {}

  Result<std::vector<NodeId>> ChooseReplicas(
      const PlacementRequest& req) override;

 private:
  std::mutex mu_;
  Random rng_;
};

/// Column-colocating policy used by CIF: the i-th block of every file in the
/// same colocation group lands on the same replica set, so a map task reading
/// a row range finds *all* its columns on the local disk. Files without a
/// group fall back to the default policy.
class ColocatingPlacementPolicy : public BlockPlacementPolicy {
 public:
  explicit ColocatingPlacementPolicy(uint64_t seed = 42) : fallback_(seed) {}

  Result<std::vector<NodeId>> ChooseReplicas(
      const PlacementRequest& req) override;

 private:
  DefaultPlacementPolicy fallback_;
  std::mutex mu_;
  /// (group, block_index) -> replica set chosen for the group's anchor file.
  std::map<std::pair<std::string, int>, std::vector<NodeId>> assignments_;
};

}  // namespace hdfs
}  // namespace clydesdale

#endif  // CLYDESDALE_HDFS_PLACEMENT_POLICY_H_
