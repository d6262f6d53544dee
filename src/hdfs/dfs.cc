#include "hdfs/dfs.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"

namespace clydesdale {
namespace hdfs {

MiniDfs::MiniDfs(DfsOptions options)
    : options_([&options] {
        if (options.placement == nullptr) {
          options.placement = std::make_shared<ColocatingPlacementPolicy>();
        }
        return options;
      }()),
      name_node_(options_.num_nodes, options_.placement) {
  CLY_CHECK(options_.num_nodes > 0);
  CLY_CHECK(options_.block_size > 0);
  nodes_.reserve(static_cast<size_t>(options_.num_nodes));
  for (int i = 0; i < options_.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<DataNode>(i));
  }
}

Result<std::unique_ptr<DfsWriter>> MiniDfs::Create(
    const std::string& path, const std::string& colocation_group,
    NodeId writer_node) {
  CLY_RETURN_IF_ERROR(
      name_node_.CreateFile(path, options_.replication, colocation_group));
  return std::unique_ptr<DfsWriter>(new DfsWriter(this, path, writer_node));
}

Result<std::unique_ptr<DfsReader>> MiniDfs::Open(const std::string& path,
                                                 NodeId reader_node,
                                                 IoStats* stats) const {
  CLY_ASSIGN_OR_RETURN(std::shared_ptr<const FileInfo> info,
                       name_node_.Stat(path));
  return std::unique_ptr<DfsReader>(
      new DfsReader(this, std::move(info), reader_node, stats));
}

Result<std::shared_ptr<const FileInfo>> MiniDfs::Stat(
    const std::string& path) const {
  return name_node_.Stat(path);
}

Status MiniDfs::Delete(const std::string& path) {
  CLY_ASSIGN_OR_RETURN(std::shared_ptr<const FileInfo> info,
                       name_node_.Stat(path));
  for (const BlockInfo& block : info->blocks) {
    for (NodeId n : block.replicas) {
      nodes_[static_cast<size_t>(n)]->DropReplica(block.id);
    }
  }
  return name_node_.Delete(path);
}

Result<int> MiniDfs::DeleteRecursive(const std::string& prefix) {
  int count = 0;
  for (const std::string& path : name_node_.List(prefix)) {
    CLY_RETURN_IF_ERROR(Delete(path));
    ++count;
  }
  return count;
}

Result<std::vector<NodeId>> MiniDfs::BlockLocations(const std::string& path,
                                                    int block_index) const {
  CLY_ASSIGN_OR_RETURN(std::shared_ptr<const FileInfo> info,
                       name_node_.Stat(path));
  if (block_index < 0 || block_index >= static_cast<int>(info->blocks.size())) {
    return Status::InvalidArgument(
        StrCat("bad block index ", block_index, " for ", path));
  }
  return AliveReplicas(info->blocks[static_cast<size_t>(block_index)]);
}

std::vector<NodeId> MiniDfs::AliveReplicas(const BlockInfo& block) const {
  std::vector<NodeId> alive;
  for (NodeId n : block.replicas) {
    if (nodes_[static_cast<size_t>(n)]->alive()) alive.push_back(n);
  }
  return alive;
}

Status MiniDfs::KillDataNode(NodeId node) {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument(StrCat("no datanode ", node));
  }
  nodes_[static_cast<size_t>(node)]->Kill();
  return Status::OK();
}

Status MiniDfs::ReviveDataNode(NodeId node) {
  if (node < 0 || node >= num_nodes()) {
    return Status::InvalidArgument(StrCat("no datanode ", node));
  }
  nodes_[static_cast<size_t>(node)]->Revive();
  return Status::OK();
}

std::vector<NodeId> MiniDfs::AliveNodes() const {
  std::vector<NodeId> alive;
  for (const auto& node : nodes_) {
    if (node->alive()) alive.push_back(node->id());
  }
  return alive;
}

Result<uint64_t> MiniDfs::ReReplicate() {
  uint64_t copied = 0;
  for (const std::string& path : name_node_.List("/")) {
    CLY_ASSIGN_OR_RETURN(std::shared_ptr<const FileInfo> info,
                         name_node_.Stat(path));
    for (size_t b = 0; b < info->blocks.size(); ++b) {
      const BlockInfo& block = info->blocks[b];
      std::vector<NodeId> live;
      for (NodeId n : block.replicas) {
        if (nodes_[static_cast<size_t>(n)]->HasReplica(block.id)) {
          live.push_back(n);
        }
      }
      if (live.empty()) {
        return Status::IoError(
            StrCat("block ", block.id, " of ", path, " lost all replicas"));
      }
      if (static_cast<int>(live.size()) >= info->replication) continue;

      // Copy from the first survivor to alive nodes not yet holding it.
      CLY_ASSIGN_OR_RETURN(
          BlockBuffer data,
          nodes_[static_cast<size_t>(live[0])]->ReadReplica(block.id));
      for (const auto& node : nodes_) {
        if (static_cast<int>(live.size()) >= info->replication) break;
        if (!node->alive()) continue;
        if (std::find(live.begin(), live.end(), node->id()) != live.end()) {
          continue;
        }
        CLY_RETURN_IF_ERROR(node->StoreReplica(block.id, data));
        live.push_back(node->id());
        copied += data->size();
      }
      CLY_RETURN_IF_ERROR(name_node_.UpdateReplicas(
          path, static_cast<int>(b), std::move(live)));
    }
  }
  AccountWrite(copied);
  return copied;
}

Status MiniDfs::WriteFile(const std::string& path, const std::string& contents,
                          const std::string& colocation_group) {
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<DfsWriter> writer,
                       Create(path, colocation_group));
  CLY_RETURN_IF_ERROR(writer->AppendString(contents));
  return writer->Close();
}

Result<std::string> MiniDfs::ReadFileToString(const std::string& path) const {
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<DfsReader> reader, Open(path));
  std::string out;
  out.resize(reader->Length());
  if (!out.empty()) CLY_RETURN_IF_ERROR(reader->PRead(0, out.data(), out.size()));
  return out;
}

IoStats MiniDfs::TotalIo() const {
  IoStats stats;
  stats.local_bytes_read = total_local_read_.load(std::memory_order_relaxed);
  stats.remote_bytes_read = total_remote_read_.load(std::memory_order_relaxed);
  stats.bytes_written = total_written_.load(std::memory_order_relaxed);
  return stats;
}

void MiniDfs::AccountRead(uint64_t local, uint64_t remote) const {
  total_local_read_.fetch_add(local, std::memory_order_relaxed);
  total_remote_read_.fetch_add(remote, std::memory_order_relaxed);
}

void MiniDfs::AccountWrite(uint64_t bytes) const {
  total_written_.fetch_add(bytes, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// DfsWriter
// ---------------------------------------------------------------------------

DfsWriter::DfsWriter(MiniDfs* dfs, std::string path, NodeId writer_node)
    : dfs_(dfs), path_(std::move(path)), writer_node_(writer_node) {
  buffer_.reserve(dfs_->block_size());
}

DfsWriter::~DfsWriter() {
  if (!closed_) {
    CLY_LOG(Warning) << "DfsWriter for " << path_
                     << " destroyed without Close(); finalizing";
    Status st = Close();
    if (!st.ok()) CLY_LOG(Error) << "implicit Close failed: " << st.ToString();
  }
}

Status DfsWriter::Append(const void* data, size_t len) {
  if (closed_) return Status::FailedPrecondition("writer closed");
  const auto* p = static_cast<const uint8_t*>(data);
  const uint64_t block_size = dfs_->block_size();
  while (len > 0) {
    const size_t room = static_cast<size_t>(block_size) - buffer_.size();
    const size_t take = std::min(len, room);
    buffer_.insert(buffer_.end(), p, p + take);
    p += take;
    len -= take;
    if (buffer_.size() == block_size) CLY_RETURN_IF_ERROR(FlushBlock());
  }
  return Status::OK();
}

Status DfsWriter::CloseBlock() {
  if (closed_) return Status::FailedPrecondition("writer closed");
  if (buffer_.empty()) return Status::OK();
  return FlushBlock();
}

Status DfsWriter::FlushBlock() {
  const uint64_t length = buffer_.size();
  CLY_ASSIGN_OR_RETURN(
      BlockInfo info,
      dfs_->name_node_.AllocateBlock(path_, length, dfs_->AliveNodes(),
                                     writer_node_));
  BlockBuffer data = MakeBlockBuffer(std::move(buffer_));
  buffer_ = {};
  buffer_.reserve(dfs_->block_size());
  for (NodeId n : info.replicas) {
    CLY_RETURN_IF_ERROR(dfs_->nodes_[static_cast<size_t>(n)]->StoreReplica(
        info.id, data));
  }
  bytes_written_ += length;
  // Accounting counts every replica (pipeline traffic).
  dfs_->AccountWrite(length * info.replicas.size());
  return Status::OK();
}

Status DfsWriter::Close() {
  if (closed_) return Status::OK();
  if (!buffer_.empty()) CLY_RETURN_IF_ERROR(FlushBlock());
  closed_ = true;
  return dfs_->name_node_.FinalizeFile(path_);
}

// ---------------------------------------------------------------------------
// DfsReader
// ---------------------------------------------------------------------------

DfsReader::DfsReader(const MiniDfs* dfs, std::shared_ptr<const FileInfo> info,
                     NodeId reader_node, IoStats* stats)
    : dfs_(dfs), info_(std::move(info)), reader_node_(reader_node),
      stats_(stats) {}

Status DfsReader::FetchBlock(int block_index) {
  if (block_index == cached_block_) return Status::OK();
  const BlockInfo& block = info_->blocks[static_cast<size_t>(block_index)];

  // Prefer the local replica; otherwise the first alive one.
  NodeId source = kNoNode;
  for (NodeId n : block.replicas) {
    if (n == reader_node_ && dfs_->data_node(n)->HasReplica(block.id)) {
      source = n;
      break;
    }
  }
  if (source == kNoNode) {
    for (NodeId n : block.replicas) {
      if (dfs_->data_node(n)->HasReplica(block.id)) {
        source = n;
        break;
      }
    }
  }
  if (source == kNoNode) {
    return Status::IoError(StrCat("no alive replica for block ", block.id,
                                  " of ", info_->path));
  }
  Stopwatch fetch_timer;
  CLY_ASSIGN_OR_RETURN(cached_data_, dfs_->data_node(source)->ReadReplica(block.id));
  cached_block_ = block_index;
  cached_local_ = source == reader_node_;
  if (stats_ != nullptr) {
    stats_->read_ops += 1;
    stats_->read_nanos += static_cast<uint64_t>(fetch_timer.ElapsedNanos());
  }
  return Status::OK();
}

Result<size_t> DfsReader::Read(void* out, size_t len) {
  if (position_ >= info_->length) return size_t{0};
  const size_t want =
      std::min<uint64_t>(len, info_->length - position_);
  CLY_RETURN_IF_ERROR(PRead(position_, out, want));
  position_ += want;
  return want;
}

Status DfsReader::PRead(uint64_t offset, void* out, size_t len) {
  // Written so `offset + len` cannot wrap past UINT64_MAX.
  if (len > info_->length || offset > info_->length - len) {
    return Status::InvalidArgument(
        StrCat("read past EOF: ", offset, "+", len, " > ", info_->length));
  }
  const std::vector<uint64_t>& offsets = info_->block_offsets;
  auto* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    // Locate the block containing `offset`.
    const auto it = std::upper_bound(offsets.begin(), offsets.end(), offset);
    const int block_index = static_cast<int>(it - offsets.begin()) - 1;
    CLY_RETURN_IF_ERROR(FetchBlock(block_index));
    const uint64_t block_start = offsets[static_cast<size_t>(block_index)];
    const uint64_t within = offset - block_start;
    const size_t avail = cached_data_->size() - static_cast<size_t>(within);
    const size_t take = std::min(len, avail);
    std::memcpy(dst, cached_data_->data() + within, take);
    AccountCachedRead(take);
    dst += take;
    offset += take;
    len -= take;
  }
  return Status::OK();
}

Result<BlockBuffer> DfsReader::ReadBlock(int block_index) {
  if (block_index < 0 ||
      block_index >= static_cast<int>(info_->blocks.size())) {
    return Status::IoError(StrCat("no block ", block_index, " in ",
                                  info_->path));
  }
  CLY_RETURN_IF_ERROR(FetchBlock(block_index));
  AccountCachedRead(cached_data_->size());
  return cached_data_;
}

void DfsReader::AccountCachedRead(uint64_t bytes) {
  // Charge the bytes actually transferred. This models column skipping
  // within PAX blocks (RCFile) and projection in CIF faithfully: only bytes
  // a reader touches count toward I/O.
  if (stats_ != nullptr) {
    (cached_local_ ? stats_->local_bytes_read : stats_->remote_bytes_read) +=
        bytes;
  }
  dfs_->AccountRead(cached_local_ ? bytes : 0, cached_local_ ? 0 : bytes);
}

Status DfsReader::Seek(uint64_t offset) {
  if (offset > info_->length) {
    return Status::InvalidArgument(StrCat("seek past EOF: ", offset));
  }
  position_ = offset;
  return Status::OK();
}

}  // namespace hdfs
}  // namespace clydesdale
