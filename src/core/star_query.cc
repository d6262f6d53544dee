#include "core/star_query.h"

#include <algorithm>

#include "common/strings.h"

namespace clydesdale {
namespace core {

const char* AggKindToString(AggKind kind) {
  switch (kind) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kCount:
      return "count";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kAvg:
      return "avg";
  }
  return "?";
}

std::vector<std::string> KeptFactColumns(const StarQuerySpec& spec) {
  std::vector<std::string> agg_cols;
  for (const AggSpec& agg : spec.aggregates) {
    if (agg.expr != nullptr) agg.expr->CollectColumns(&agg_cols);
  }
  std::vector<std::string> keep;
  for (const std::string& c : agg_cols) AddUnique(&keep, c);
  for (const std::string& g : spec.group_by) {
    bool is_aux = false;
    for (const DimJoinSpec& dim : spec.dims) {
      is_aux = is_aux || std::find(dim.aux_columns.begin(),
                                   dim.aux_columns.end(),
                                   g) != dim.aux_columns.end();
    }
    if (!is_aux) AddUnique(&keep, g);
  }
  return keep;
}

std::vector<std::string> FactColumnsFor(const StarQuerySpec& spec) {
  std::vector<std::string> columns;
  for (const DimJoinSpec& dim : spec.dims) AddUnique(&columns, dim.fact_fk);
  std::vector<std::string> pred_cols;
  spec.fact_predicate->CollectColumns(&pred_cols);
  for (const std::string& c : pred_cols) AddUnique(&columns, c);
  for (const std::string& c : KeptFactColumns(spec)) AddUnique(&columns, c);
  return columns;
}

Result<std::vector<GroupSource>> ResolveGroupSources(
    const StarQuerySpec& spec, const Schema& fact_schema) {
  std::vector<GroupSource> sources;
  sources.reserve(spec.group_by.size());
  for (const std::string& g : spec.group_by) {
    GroupSource src;
    bool found = false;
    for (size_t d = 0; d < spec.dims.size() && !found; ++d) {
      const auto& aux = spec.dims[d].aux_columns;
      for (size_t a = 0; a < aux.size(); ++a) {
        if (aux[a] == g) {
          src.dim_index = static_cast<int>(d);
          src.aux_index = static_cast<int>(a);
          found = true;
          break;
        }
      }
    }
    if (!found) {
      const int i = fact_schema.IndexOf(g);
      if (i < 0) {
        return Status::InvalidArgument(
            StrCat("group-by column '", g, "' is neither a dimension aux ",
                   "column nor a fact column in ", spec.id));
      }
      src.from_fact = true;
      src.fact_index = i;
    }
    sources.push_back(src);
  }
  return sources;
}

std::vector<std::string> OutputColumnsOf(const StarQuerySpec& spec) {
  std::vector<std::string> out = spec.group_by;
  for (const AggSpec& agg : spec.aggregates) out.push_back(agg.name);
  return out;
}

namespace {
bool IsScanLeafKind(Predicate::Kind kind) {
  switch (kind) {
    case Predicate::Kind::kEq:
    case Predicate::Kind::kNe:
    case Predicate::Kind::kLt:
    case Predicate::Kind::kLe:
    case Predicate::Kind::kGt:
    case Predicate::Kind::kGe:
    case Predicate::Kind::kBetween:
    case Predicate::Kind::kIn:
      return true;
    default:
      return false;
  }
}

void CollectScanConjunctsInto(const Predicate::Ptr& pred,
                              std::vector<Predicate::Ptr>* out) {
  if (pred == nullptr) return;
  if (pred->kind() == Predicate::Kind::kAnd) {
    for (const Predicate::Ptr& child : pred->children()) {
      CollectScanConjunctsInto(child, out);
    }
    return;
  }
  if (IsScanLeafKind(pred->kind())) out->push_back(pred);
}
}  // namespace

std::vector<Predicate::Ptr> CollectScanConjuncts(const Predicate::Ptr& pred) {
  std::vector<Predicate::Ptr> out;
  CollectScanConjunctsInto(pred, &out);
  return out;
}

Status SortResultRows(const StarQuerySpec& spec, std::vector<Row>* rows) {
  const std::vector<std::string> output = OutputColumnsOf(spec);
  std::vector<std::pair<int, bool>> sort_keys;  // (column index, ascending)
  for (const OrderBySpec& ob : spec.order_by) {
    auto it = std::find(output.begin(), output.end(), ob.column);
    if (it == output.end()) {
      return Status::InvalidArgument(
          StrCat("order-by column '", ob.column, "' is not in the output of ",
                 spec.id));
    }
    sort_keys.emplace_back(static_cast<int>(it - output.begin()),
                           ob.ascending);
  }
  std::sort(rows->begin(), rows->end(), [&sort_keys](const Row& a, const Row& b) {
    for (const auto& [index, ascending] : sort_keys) {
      const int c = a.Get(index).Compare(b.Get(index));
      if (c != 0) return ascending ? c < 0 : c > 0;
    }
    return a.Compare(b) < 0;  // canonical tiebreak
  });
  return Status::OK();
}

}  // namespace core
}  // namespace clydesdale
