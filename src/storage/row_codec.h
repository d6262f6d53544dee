#ifndef CLYDESDALE_STORAGE_ROW_CODEC_H_
#define CLYDESDALE_STORAGE_ROW_CODEC_H_

#include <string>
#include <string_view>

#include "schema/row.h"
#include "schema/schema.h"
#include "storage/byte_io.h"

namespace clydesdale {
namespace storage {

/// Binary row encoding: fields in schema order; int32 -> 4B LE, int64/double
/// -> 8B LE, string -> u16 length + bytes. Used by the binary-row table
/// format, dimension replicas, intermediate MR files, and the shuffle.
void EncodeRow(const Row& row, ByteWriter* out);
Status DecodeRow(const Schema& schema, ByteReader* in, Row* out);

/// Encoded size without actually encoding.
size_t EncodedRowSize(const Row& row);

/// Text (dbgen-style) encoding: '|'-separated fields, no trailing delimiter.
std::string FormatRowText(const Row& row);
Status ParseRowText(const Schema& schema, std::string_view line, Row* out);

/// Parses a single textual field into a typed Value. The whole field must
/// be one number in the type's range; anything else is an IoError.
Status ParseValueText(TypeKind type, std::string_view field, Value* out);

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_ROW_CODEC_H_
