#include "core/repartition_join.h"

#include "common/strings.h"
#include "mapreduce/input_format.h"
#include "obs/query_profile.h"

namespace clydesdale {
namespace core {

namespace {
constexpr int32_t kFactTag = 0;
constexpr int32_t kDimTag = 1;

/// Row-counting operator node shared by both sides of the repartition join
/// (the tagging mapper and the joining reducer): wall/cpu live on the task
/// root, so these carry the row flow only.
obs::OperatorProfile CountingProfileNode(const char* name, const char* kind,
                                         uint64_t rows_in, uint64_t rows_out) {
  obs::OperatorProfile node;
  node.name = name;
  node.kind = kind;
  node.rows_in = rows_in;
  node.rows_out = rows_out;
  node.tasks = 1;
  return node;
}
}  // namespace

Status RepartitionJoinMapper::Setup(mr::TaskContext*) {
  CLY_ASSIGN_OR_RETURN(fact_pred_,
                       spec_.fact_predicate->Bind(*spec_.fact_schema));
  CLY_ASSIGN_OR_RETURN(dim_pred_, spec_.dim_predicate->Bind(*spec_.dim_schema));
  CLY_ASSIGN_OR_RETURN(fact_fk_index_,
                       spec_.fact_schema->Require(spec_.fact_fk));
  CLY_ASSIGN_OR_RETURN(dim_pk_index_, spec_.dim_schema->Require(spec_.dim_pk));
  for (const std::string& c : spec_.fact_out_cols) {
    CLY_ASSIGN_OR_RETURN(int i, spec_.fact_schema->Require(c));
    fact_out_idx_.push_back(i);
  }
  for (const std::string& c : spec_.aux_cols) {
    CLY_ASSIGN_OR_RETURN(int i, spec_.dim_schema->Require(c));
    dim_aux_idx_.push_back(i);
  }
  return Status::OK();
}

Status RepartitionJoinMapper::Map(const Row& key, const Row& value,
                                  mr::TaskContext*, mr::OutputCollector* out) {
  (void)key;
  ++rows_in_;
  // MultiTableInputFormat prefixed the source-table ordinal as field 0
  // (0 = fact side, 1 = dimension side; see MakeRepartitionJoinJob).
  const int32_t tag = value.Get(0).i32();
  // Strip the tag: the remaining fields follow the side's projection order.
  Row row;
  row.Reserve(value.size() - 1);
  for (int i = 1; i < value.size(); ++i) row.Append(value.Get(i));

  if (tag == kFactTag) {
    if (!fact_pred_->Eval(row)) return Status::OK();
    Row out_key({row.Get(fact_fk_index_)});
    Row out_value;
    out_value.Reserve(1 + static_cast<int>(fact_out_idx_.size()));
    out_value.Append(Value(kFactTag));
    for (int i : fact_out_idx_) out_value.Append(row.Get(i));
    ++rows_out_;
    return out->Collect(out_key, out_value);
  }
  // Dimension side: filter, key by pk, carry the aux columns.
  if (!dim_pred_->Eval(row)) return Status::OK();
  Row out_key({row.Get(dim_pk_index_)});
  Row out_value;
  out_value.Reserve(1 + static_cast<int>(dim_aux_idx_.size()));
  out_value.Append(Value(kDimTag));
  for (int i : dim_aux_idx_) out_value.Append(row.Get(i));
  ++rows_out_;
  return out->Collect(out_key, out_value);
}

Status RepartitionJoinMapper::Cleanup(mr::TaskContext* context,
                                      mr::OutputCollector* out) {
  (void)out;
  context->AddProfileOperator(
      CountingProfileNode("tag-partition", "partition", rows_in_, rows_out_));
  return Status::OK();
}

Status RepartitionJoinReducer::Reduce(const Row& key,
                                      const std::vector<Row>& values,
                                      mr::TaskContext*,
                                      mr::OutputCollector* out) {
  (void)key;
  rows_in_ += values.size();
  // Find the dimension row (0 or 1 of them: pk side).
  const Row* dim_row = nullptr;
  for (const Row& v : values) {
    if (v.Get(0).i32() == kDimTag) {
      if (dim_row != nullptr) {
        return Status::Internal("duplicate dimension primary key in join");
      }
      dim_row = &v;
    }
  }
  if (dim_row == nullptr) return Status::OK();  // inner join: no match

  Row empty_key;
  for (const Row& v : values) {
    if (v.Get(0).i32() != kFactTag) continue;
    Row joined;
    joined.Reserve(v.size() - 1 + dim_row->size() - 1);
    for (int i = 1; i < v.size(); ++i) joined.Append(v.Get(i));
    for (int i = 1; i < dim_row->size(); ++i) joined.Append(dim_row->Get(i));
    ++rows_out_;
    CLY_RETURN_IF_ERROR(out->Collect(empty_key, joined));
  }
  return Status::OK();
}

Status RepartitionJoinReducer::Cleanup(mr::TaskContext* context,
                                       mr::OutputCollector* out) {
  (void)out;
  context->AddProfileOperator(
      CountingProfileNode("join", "join", rows_in_, rows_out_));
  return Status::OK();
}

mr::JobConf MakeRepartitionJoinJob(const RepartitionJoinSpec& spec,
                                   const std::string& fact_table,
                                   const std::string& dim_table,
                                   int reduce_tasks) {
  mr::JobConf conf;
  conf.num_reduce_tasks = reduce_tasks;
  conf.SetList(mr::kConfInputTables, {fact_table, dim_table});
  conf.SetList(StrCat(mr::kConfInputProjection, ".0"),
               spec.fact_schema->FieldNames());
  conf.SetList(StrCat(mr::kConfInputProjection, ".1"),
               spec.dim_schema->FieldNames());
  conf.input_format_factory = [] {
    return std::make_unique<mr::MultiTableInputFormat>();
  };
  conf.mapper_factory = [spec] {
    return std::make_unique<RepartitionJoinMapper>(spec);
  };
  conf.reducer_factory = [] {
    return std::make_unique<RepartitionJoinReducer>();
  };
  return conf;
}

}  // namespace core
}  // namespace clydesdale
