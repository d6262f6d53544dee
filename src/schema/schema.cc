#include "schema/schema.h"

#include "common/strings.h"

namespace clydesdale {

namespace {
double DefaultWidth(TypeKind type, double declared) {
  if (declared > 0) return declared;
  switch (type) {
    case TypeKind::kInt32:
      return 4;
    case TypeKind::kInt64:
    case TypeKind::kDouble:
      return 8;
    case TypeKind::kString:
      return 12;  // Conservative default when the generator gave no hint.
  }
  return 8;
}
}  // namespace

Schema::Schema(std::vector<Field> fields) : fields_(std::move(fields)) {
  for (size_t i = 0; i < fields_.size(); ++i) {
    fields_[i].avg_width = DefaultWidth(fields_[i].type, fields_[i].avg_width);
    index_.emplace(fields_[i].name, static_cast<int>(i));
  }
}

int Schema::IndexOf(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

Result<int> Schema::Require(const std::string& name) const {
  const int i = IndexOf(name);
  if (i < 0) {
    return Status::InvalidArgument(StrCat("no field named '", name, "'"));
  }
  return i;
}

std::shared_ptr<Schema> Schema::Project(const std::vector<int>& indexes) const {
  std::vector<Field> out;
  out.reserve(indexes.size());
  for (int i : indexes) out.push_back(field(i));
  return Schema::Make(std::move(out));
}

Result<std::shared_ptr<Schema>> Schema::ProjectByName(
    const std::vector<std::string>& names) const {
  std::vector<int> indexes;
  indexes.reserve(names.size());
  for (const std::string& name : names) {
    CLY_ASSIGN_OR_RETURN(int i, Require(name));
    indexes.push_back(i);
  }
  return Project(indexes);
}

std::vector<std::string> Schema::FieldNames() const {
  std::vector<std::string> names;
  names.reserve(fields_.size());
  for (const Field& f : fields_) names.push_back(f.name);
  return names;
}

double Schema::AvgRowWidth() const {
  double total = 0;
  for (const Field& f : fields_) total += f.avg_width;
  return total;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(StrCat(f.name, ":", TypeKindToString(f.type)));
  }
  return StrCat("{", StrJoin(parts, ", "), "}");
}

}  // namespace clydesdale
