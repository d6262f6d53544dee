#include "core/star_schema.h"

#include "common/strings.h"
#include "storage/cif.h"

namespace clydesdale {
namespace core {

StarSchema::StarSchema(storage::TableDesc fact, std::vector<DimTableInfo> dims)
    : fact_(std::move(fact)) {
  for (DimTableInfo& dim : dims) AddDimension(std::move(dim));
}

Result<const DimTableInfo*> StarSchema::dim(const std::string& name) const {
  auto it = dims_.find(name);
  if (it == dims_.end()) {
    return Status::NotFound(StrCat("no dimension '", name, "' registered"));
  }
  return &it->second;
}

void StarSchema::AddDimension(DimTableInfo info) {
  dims_[info.name] = std::move(info);
}

namespace {
/// Reads the dimension master from HDFS and encodes it as a column image.
Result<std::vector<uint8_t>> FetchDimensionMaster(mr::MrCluster* cluster,
                                                  const DimTableInfo& dim,
                                                  hdfs::IoStats* stats,
                                                  hdfs::NodeId reader_node) {
  storage::ScanOptions options;
  options.reader_node = reader_node;
  options.stats = stats;
  CLY_ASSIGN_OR_RETURN(
      std::vector<Row> rows,
      storage::ScanTableToVector(*cluster->dfs(), dim.desc, options));
  return storage::EncodeColumnImage(dim.desc.schema, rows);
}
}  // namespace

Status ReplicateDimensionToAllNodes(mr::MrCluster* cluster,
                                    const DimTableInfo& dim) {
  hdfs::IoStats stats;
  CLY_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      FetchDimensionMaster(cluster, dim, &stats, hdfs::kNoNode));
  return InstallDimensionReplicas(cluster, dim,
                                  hdfs::MakeBlockBuffer(std::move(bytes)));
}

Status InstallDimensionReplicas(mr::MrCluster* cluster, const DimTableInfo& dim,
                                const hdfs::BlockBuffer& image) {
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    CLY_RETURN_IF_ERROR(
        cluster->local_store(n)->WriteShared(dim.local_path, image));
  }
  return Status::OK();
}

Result<hdfs::BlockBuffer> ReadDimensionReplica(mr::TaskContext* context,
                                               const DimTableInfo& dim) {
  hdfs::LocalStore* store = context->local_store();
  Result<hdfs::BlockBuffer> local = store->Read(dim.local_path);
  if (local.ok()) return local;
  // Local copy lost (disk failure / fresh node): restore from the master
  // copy in HDFS (paper §4), then serve it.
  CLY_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      FetchDimensionMaster(context->cluster(), dim, context->io_stats(),
                           context->node()));
  const hdfs::BlockBuffer shared = hdfs::MakeBlockBuffer(std::move(bytes));
  CLY_RETURN_IF_ERROR(store->WriteShared(dim.local_path, shared));
  return shared;
}

}  // namespace core
}  // namespace clydesdale
