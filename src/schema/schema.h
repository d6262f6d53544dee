#ifndef CLYDESDALE_SCHEMA_SCHEMA_H_
#define CLYDESDALE_SCHEMA_SCHEMA_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "schema/value.h"

namespace clydesdale {

/// One column description.
struct Field {
  std::string name;
  TypeKind type;
  /// Average encoded width used for I/O estimates; exact for fixed-width
  /// types, a generator-supplied mean for strings.
  double avg_width = 0;
};

/// An ordered list of fields with name lookup. Immutable after construction;
/// shared via shared_ptr across readers, writers, and tasks.
class Schema {
 public:
  explicit Schema(std::vector<Field> fields);

  static std::shared_ptr<Schema> Make(std::vector<Field> fields) {
    return std::make_shared<Schema>(std::move(fields));
  }

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const { return fields_[static_cast<size_t>(i)]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of the named field, or -1.
  int IndexOf(const std::string& name) const;

  /// Index of the named field, or InvalidArgument.
  Result<int> Require(const std::string& name) const;

  /// Schema containing just the given field indexes, in that order.
  std::shared_ptr<Schema> Project(const std::vector<int>& indexes) const;
  /// Schema containing just the named fields, in that order, or
  /// InvalidArgument for a name that is not a field.
  Result<std::shared_ptr<Schema>> ProjectByName(
      const std::vector<std::string>& names) const;

  /// Field names, in field order.
  std::vector<std::string> FieldNames() const;

  /// Sum of avg_width over all fields (estimated bytes per encoded row).
  double AvgRowWidth() const;

  std::string ToString() const;

 private:
  std::vector<Field> fields_;
  std::unordered_map<std::string, int> index_;
};

using SchemaPtr = std::shared_ptr<Schema>;

}  // namespace clydesdale

#endif  // CLYDESDALE_SCHEMA_SCHEMA_H_
