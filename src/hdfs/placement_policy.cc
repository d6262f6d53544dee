#include "hdfs/placement_policy.h"

#include <algorithm>

#include "common/strings.h"

namespace clydesdale {
namespace hdfs {

Result<std::vector<NodeId>> DefaultPlacementPolicy::ChooseReplicas(
    const PlacementRequest& req) {
  if (req.alive_nodes.empty()) {
    return Status::ResourceExhausted("no alive datanodes");
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NodeId> candidates = req.alive_nodes;
  std::vector<NodeId> chosen;
  const int want = std::min<int>(req.replication,
                                 static_cast<int>(candidates.size()));
  chosen.reserve(static_cast<size_t>(want));

  // First replica: the writer node when it is an alive datanode.
  auto writer_it =
      std::find(candidates.begin(), candidates.end(), req.writer_node);
  if (writer_it != candidates.end()) {
    chosen.push_back(req.writer_node);
    candidates.erase(writer_it);
  }
  // Remaining replicas: uniform without replacement.
  while (static_cast<int>(chosen.size()) < want) {
    const size_t pick =
        static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(candidates.size()) - 1));
    chosen.push_back(candidates[pick]);
    candidates.erase(candidates.begin() + static_cast<long>(pick));
  }
  return chosen;
}

Result<std::vector<NodeId>> ColocatingPlacementPolicy::ChooseReplicas(
    const PlacementRequest& req) {
  if (req.colocation_group.empty()) {
    return fallback_.ChooseReplicas(req);
  }
  const auto key = std::make_pair(req.colocation_group, req.block_index);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = assignments_.find(key);
    if (it != assignments_.end()) {
      // Reuse the anchor placement, but drop nodes that have since died; the
      // caller's re-replication pass will restore the count.
      std::vector<NodeId> live;
      for (NodeId n : it->second) {
        if (std::find(req.alive_nodes.begin(), req.alive_nodes.end(), n) !=
            req.alive_nodes.end()) {
          live.push_back(n);
        }
      }
      if (!live.empty()) return live;
      // Whole replica set died; fall through to choose afresh.
    }
  }
  CLY_ASSIGN_OR_RETURN(std::vector<NodeId> chosen,
                       fallback_.ChooseReplicas(req));
  {
    std::lock_guard<std::mutex> lock(mu_);
    assignments_[key] = chosen;
  }
  return chosen;
}

}  // namespace hdfs
}  // namespace clydesdale
