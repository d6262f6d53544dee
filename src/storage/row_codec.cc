#include "storage/row_codec.h"

#include <string>

#include "common/strings.h"

namespace clydesdale {
namespace storage {

void EncodeRow(const Row& row, ByteWriter* out) {
  for (const Value& v : row.values()) {
    switch (v.kind()) {
      case TypeKind::kInt32:
        out->PutI32(v.i32());
        break;
      case TypeKind::kInt64:
        out->PutI64(v.i64());
        break;
      case TypeKind::kDouble:
        out->PutF64(v.f64());
        break;
      case TypeKind::kString:
        out->PutString(v.str());
        break;
    }
  }
}

Status DecodeRow(const Schema& schema, ByteReader* in, Row* out) {
  out->Clear();
  out->Reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    switch (f.type) {
      case TypeKind::kInt32: {
        int32_t v = 0;
        CLY_RETURN_IF_ERROR(in->GetI32(&v));
        out->Append(Value(v));
        break;
      }
      case TypeKind::kInt64: {
        int64_t v = 0;
        CLY_RETURN_IF_ERROR(in->GetI64(&v));
        out->Append(Value(v));
        break;
      }
      case TypeKind::kDouble: {
        double v = 0;
        CLY_RETURN_IF_ERROR(in->GetF64(&v));
        out->Append(Value(v));
        break;
      }
      case TypeKind::kString: {
        std::string s;
        CLY_RETURN_IF_ERROR(in->GetString(&s));
        out->Append(Value(std::move(s)));
        break;
      }
    }
  }
  return Status::OK();
}

size_t EncodedRowSize(const Row& row) {
  size_t total = 0;
  for (const Value& v : row.values()) total += v.EncodedSize();
  return total;
}

std::string FormatRowText(const Row& row) { return row.ToString(); }

namespace {
/// Parses the whole of `field` as a T; a malformed, partial or out-of-range
/// field is an IoError naming it.
template <typename T>
Status ParseNumber(const char* type_name, std::string_view field, T* value) {
  if (ParseWholeNumber(field, value)) return Status::OK();
  return Status::IoError(
      StrCat("bad ", type_name, " field: '", std::string(field), "'"));
}
}  // namespace

Status ParseValueText(TypeKind type, std::string_view field, Value* out) {
  switch (type) {
    case TypeKind::kInt32: {
      int32_t v = 0;
      CLY_RETURN_IF_ERROR(ParseNumber("int32", field, &v));
      *out = Value(v);
      return Status::OK();
    }
    case TypeKind::kInt64: {
      int64_t v = 0;
      CLY_RETURN_IF_ERROR(ParseNumber("int64", field, &v));
      *out = Value(v);
      return Status::OK();
    }
    case TypeKind::kDouble: {
      double v = 0;
      CLY_RETURN_IF_ERROR(ParseNumber("double", field, &v));
      *out = Value(v);
      return Status::OK();
    }
    case TypeKind::kString:
      *out = Value(std::string(field));
      return Status::OK();
  }
  return Status::Internal("unreachable type kind");
}

Status ParseRowText(const Schema& schema, std::string_view line, Row* out) {
  out->Clear();
  out->Reserve(schema.num_fields());
  size_t start = 0;
  for (int i = 0; i < schema.num_fields(); ++i) {
    const bool last = i + 1 == schema.num_fields();
    size_t end = last ? line.size() : line.find('|', start);
    if (!last && end == std::string_view::npos) {
      return Status::IoError(
          StrCat("too few fields in line: '", std::string(line), "'"));
    }
    Value v;
    CLY_RETURN_IF_ERROR(
        ParseValueText(schema.field(i).type, line.substr(start, end - start), &v));
    out->Append(std::move(v));
    start = end + 1;
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace clydesdale
