#include "mapreduce/output_format.h"

#include <iterator>

#include "common/strings.h"
#include "mapreduce/engine.h"

namespace clydesdale {
namespace mr {

Result<SchemaPtr> ParseColumnsDecl(const std::string& decl) {
  if (decl.empty()) {
    return Status::InvalidArgument("output.columns is not set");
  }
  std::vector<Field> fields;
  for (const std::string& item : StrSplit(decl, ',')) {
    const std::vector<std::string> parts = StrSplit(item, ':');
    if (parts.size() != 2) {
      return Status::InvalidArgument(
          StrCat("bad column declaration: '", item, "'"));
    }
    TypeKind type;
    if (parts[1] == "int32") {
      type = TypeKind::kInt32;
    } else if (parts[1] == "int64") {
      type = TypeKind::kInt64;
    } else if (parts[1] == "double") {
      type = TypeKind::kDouble;
    } else if (parts[1] == "string") {
      type = TypeKind::kString;
    } else {
      return Status::InvalidArgument(StrCat("bad column type: '", parts[1], "'"));
    }
    fields.push_back(Field{parts[0], type, 0});
  }
  return Schema::Make(std::move(fields));
}

// --- TaskRowBuffers ----------------------------------------------------------

void TaskRowBuffers::Reset(int num_tasks) {
  buffers_.clear();
  for (int t = 0; t < num_tasks; ++t) {
    buffers_.push_back(std::make_unique<Buffer>());
  }
}

Status TaskRowBuffers::Append(int task, const Row& key, const Row& value) {
  if (task < 0 || static_cast<size_t>(task) >= buffers_.size()) {
    return Status::Internal(StrCat("output from task ", task, " of ",
                                   buffers_.size()));
  }
  Row combined = key;
  combined.Extend(value);
  Buffer& buffer = *buffers_[static_cast<size_t>(task)];
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.rows.push_back(std::move(combined));
  return Status::OK();
}

std::vector<Row> TaskRowBuffers::TakeInTaskOrder() {
  // Called once the tasks have finished, so the buffers hold still.
  size_t total = 0;
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    total += buffer->rows.size();
  }
  std::vector<Row> rows;
  rows.reserve(total);
  for (const std::unique_ptr<Buffer>& buffer : buffers_) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    rows.insert(rows.end(), std::make_move_iterator(buffer->rows.begin()),
                std::make_move_iterator(buffer->rows.end()));
    std::vector<Row>().swap(buffer->rows);
  }
  return rows;
}

// --- MemoryOutputFormat ------------------------------------------------------

Status MemoryOutputFormat::Open(MrCluster*, const JobConf&, int num_tasks) {
  rows_.Reset(num_tasks);
  return Status::OK();
}

Status MemoryOutputFormat::Write(int task, const Row& key, const Row& value) {
  return rows_.Append(task, key, value);
}

Status MemoryOutputFormat::Commit(MrCluster*, const JobConf&) {
  return Status::OK();
}

std::vector<Row> MemoryOutputFormat::TakeRows() {
  return rows_.TakeInTaskOrder();
}

// --- TableOutputFormat -------------------------------------------------------

Status TableOutputFormat::Open(MrCluster*, const JobConf& conf,
                               int num_tasks) {
  const std::string table = conf.Get(kConfOutputTable);
  if (table.empty()) {
    return Status::InvalidArgument("output.table is not set");
  }
  rows_.Reset(num_tasks);
  // Validate the declaration early so misconfiguration fails before work.
  return ParseColumnsDecl(conf.Get(kConfOutputColumns)).status();
}

Status TableOutputFormat::Write(int task, const Row& key, const Row& value) {
  return rows_.Append(task, key, value);
}

Status TableOutputFormat::Commit(MrCluster* cluster, const JobConf& conf) {
  CLY_ASSIGN_OR_RETURN(SchemaPtr schema,
                       ParseColumnsDecl(conf.Get(kConfOutputColumns)));
  storage::TableDesc desc;
  desc.path = conf.Get(kConfOutputTable);
  desc.format = conf.Get(kConfOutputFormat, storage::kFormatBinaryRow);
  desc.schema = schema;
  desc.rows_per_split = static_cast<uint64_t>(
      conf.GetInt("output.rows_per_split", 64 * 1024));

  const std::vector<Row> rows = rows_.TakeInTaskOrder();
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<storage::TableWriter> writer,
                       storage::OpenTableWriter(cluster->dfs(), desc));
  for (const Row& row : rows) {
    if (row.size() != schema->num_fields()) {
      return Status::Internal(
          StrCat("output row arity ", row.size(), " != declared ",
                 schema->num_fields()));
    }
    CLY_RETURN_IF_ERROR(writer->Append(row));
  }
  CLY_RETURN_IF_ERROR(writer->Close());
  cluster->InvalidateTable(desc.path);
  return Status::OK();
}

}  // namespace mr
}  // namespace clydesdale
