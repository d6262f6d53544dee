#include "hdfs/datanode.h"

#include "common/strings.h"

namespace clydesdale {
namespace hdfs {

bool DataNode::alive() const {
  std::lock_guard<std::mutex> lock(mu_);
  return alive_;
}

void DataNode::Kill() {
  std::lock_guard<std::mutex> lock(mu_);
  alive_ = false;
  replicas_.clear();
}

void DataNode::Revive() {
  std::lock_guard<std::mutex> lock(mu_);
  alive_ = true;
}

Status DataNode::StoreReplica(BlockId block, BlockBuffer data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_) {
    return Status::IoError(StrCat("datanode ", id_, " is down"));
  }
  replicas_[block] = std::move(data);
  return Status::OK();
}

Result<BlockBuffer> DataNode::ReadReplica(BlockId block) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!alive_) {
    return Status::IoError(StrCat("datanode ", id_, " is down"));
  }
  auto it = replicas_.find(block);
  if (it == replicas_.end()) {
    return Status::NotFound(
        StrCat("block ", block, " not on datanode ", id_));
  }
  return it->second;
}

bool DataNode::HasReplica(BlockId block) const {
  std::lock_guard<std::mutex> lock(mu_);
  return alive_ && replicas_.count(block) > 0;
}

void DataNode::DropReplica(BlockId block) {
  std::lock_guard<std::mutex> lock(mu_);
  replicas_.erase(block);
}

uint64_t DataNode::StoredBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [id, data] : replicas_) total += data->size();
  return total;
}

}  // namespace hdfs
}  // namespace clydesdale
