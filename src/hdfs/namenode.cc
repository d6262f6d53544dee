#include "hdfs/namenode.h"

#include "common/logging.h"
#include "common/strings.h"

namespace clydesdale {
namespace hdfs {

NameNode::NameNode(int num_nodes, std::shared_ptr<BlockPlacementPolicy> policy)
    : num_nodes_(num_nodes), policy_(std::move(policy)) {
  CLY_CHECK(num_nodes_ > 0);
  CLY_CHECK(policy_ != nullptr);
}

Status NameNode::CreateFile(const std::string& path, int replication,
                            const std::string& colocation_group) {
  if (path.empty() || path[0] != '/') {
    return Status::InvalidArgument(StrCat("bad dfs path: '", path, "'"));
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(path) > 0) {
    return Status::AlreadyExists(StrCat("dfs file exists: ", path));
  }
  FileState state;
  state.info = std::make_shared<FileInfo>();
  state.info->path = path;
  state.info->replication = replication;
  state.info->colocation_group = colocation_group;
  files_.emplace(path, std::move(state));
  return Status::OK();
}

Result<BlockInfo> NameNode::AllocateBlock(
    const std::string& path, uint64_t length,
    const std::vector<NodeId>& alive_nodes, NodeId writer_node) {
  PlacementRequest req;
  BlockId id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = files_.find(path);
    if (it == files_.end()) {
      return Status::NotFound(StrCat("dfs file not found: ", path));
    }
    if (it->second.finalized) {
      return Status::FailedPrecondition(
          StrCat("dfs file already finalized: ", path));
    }
    req.path = path;
    req.colocation_group = it->second.info->colocation_group;
    req.block_index = static_cast<int>(it->second.info->blocks.size());
    req.replication = it->second.info->replication;
    id = next_block_id_++;
  }
  req.alive_nodes = alive_nodes;
  req.writer_node = writer_node;

  CLY_ASSIGN_OR_RETURN(std::vector<NodeId> replicas,
                       policy_->ChooseReplicas(req));

  BlockInfo info;
  info.id = id;
  info.length = length;
  info.replicas = std::move(replicas);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(StrCat("dfs file deleted mid-write: ", path));
  }
  FileInfo* file = MutableInfo(&it->second);
  file->blocks.push_back(info);
  file->block_offsets.push_back(file->length);
  file->length += length;
  return info;
}

Status NameNode::FinalizeFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(StrCat("dfs file not found: ", path));
  }
  it->second.finalized = true;
  return Status::OK();
}

Result<std::shared_ptr<const FileInfo>> NameNode::Stat(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(StrCat("dfs file not found: ", path));
  }
  it->second.handed_out = true;
  return std::shared_ptr<const FileInfo>(it->second.info);
}

bool NameNode::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Status NameNode::Delete(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.erase(path) == 0) {
    return Status::NotFound(StrCat("dfs file not found: ", path));
  }
  return Status::OK();
}

std::vector<std::string> NameNode::List(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && StartsWith(it->first, prefix); ++it) {
    out.push_back(it->first);
  }
  return out;
}

Status NameNode::UpdateReplicas(const std::string& path, int block_index,
                                std::vector<NodeId> replicas) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound(StrCat("dfs file not found: ", path));
  }
  if (block_index < 0 ||
      block_index >= static_cast<int>(it->second.info->blocks.size())) {
    return Status::InvalidArgument(StrCat("bad block index ", block_index));
  }
  MutableInfo(&it->second)->blocks[static_cast<size_t>(block_index)].replicas =
      std::move(replicas);
  return Status::OK();
}

FileInfo* NameNode::MutableInfo(FileState* state) {
  if (state->handed_out) {
    state->info = std::make_shared<FileInfo>(*state->info);
    state->handed_out = false;
  }
  return state->info.get();
}

}  // namespace hdfs
}  // namespace clydesdale
