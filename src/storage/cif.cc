#include "storage/cif.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "storage/byte_io.h"
#include "storage/column_codec.h"

namespace clydesdale {
namespace storage {

namespace {

std::string ColumnFilePath(const TableDesc& desc, const std::string& column,
                           int segment = 0) {
  if (segment == 0) return StrCat(desc.path, "/", column, ".col");
  return StrCat(desc.path, "/", column, ".s", segment, ".col");
}

std::string ColocationGroup(const TableDesc& desc, int segment) {
  return segment == 0 ? desc.path : StrCat(desc.path, "#s", segment);
}

// String column block sub-formats: low-cardinality columns (order priority,
// ship mode, regions, ...) store a dictionary plus one byte per row, which
// is what brings the full fact row close to the paper's ~56 B binary width.
constexpr uint8_t kStringPlain = 0;
constexpr uint8_t kStringDictionary = 1;

// --- Column block framing ---------------------------------------------------
// Every column block of a split is framed as
//   [u32 "CIF3"][u32 nrows][payload][u8 enc][u8 zone kind][zone data]
//   [u32 zone_len]["FOOT"]
// where zone_len covers the encoding tag and the zone map. The payload
// layout depends on the encoding tag (storage/column_codec.h). The leading
// magic rejects bytes that are not a CIF block instead of misparsing them;
// the payload starts at offset 8, so fixed-width value arrays are 8-byte
// aligned in the read buffer and can be scanned in place without a copy.
constexpr uint32_t kCifMagic = 0x33464943u;        // "CIF3"
constexpr uint32_t kCifFooterMagic = 0x544F4F46u;  // "FOOT"

// Zone map kinds (first byte of the zone section).
constexpr uint8_t kZoneNone = 0;
constexpr uint8_t kZoneInt = 1;     // [i64 min][i64 max]
constexpr uint8_t kZoneDouble = 2;  // [f64 min][f64 max]
constexpr uint8_t kZoneDict = 3;    // [u64 fingerprint]

/// One bit per distinct dictionary entry; an equality probe whose bit is
/// absent cannot match any row of the block.
uint64_t DictFingerprintBit(std::string_view s) {
  return 1ull << (HashString(s) & 63);
}

struct ZoneMap {
  uint8_t kind = kZoneNone;
  int64_t min_i64 = 0;
  int64_t max_i64 = 0;
  double min_f64 = 0.0;
  double max_f64 = 0.0;
  uint64_t fingerprint = 0;
};

/// Serializes one column's buffered values (everything after the row count):
/// integers go through the codec's stats-driven encoding choice, strings
/// use a dictionary when <= 256 distinct values fit and then consider
/// RLE-of-codes on top of it, doubles stay plain. Returns the encoding tag
/// for the footer and fills the zone map from the same pass.
uint8_t EncodeColumnPayload(const ColumnVector& col, ByteWriter* out,
                            ZoneMap* zone) {
  const auto nrows = static_cast<uint32_t>(col.size());
  switch (col.type()) {
    case TypeKind::kInt32:
    case TypeKind::kInt64: {
      IntBlockStats stats;
      const uint8_t tag = EncodeIntPayload(col, out, &stats);
      if (nrows > 0) {
        zone->kind = kZoneInt;
        zone->min_i64 = stats.min;
        zone->max_i64 = stats.max;
      }
      return tag;
    }
    case TypeKind::kDouble: {
      out->PutBytes(col.f64().data(), col.f64().size() * sizeof(double));
      // NaNs poison ordered comparisons, so a block containing one gets no
      // zone map rather than an unsound one.
      bool has_nan = false;
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      for (double v : col.f64()) {
        if (std::isnan(v)) {
          has_nan = true;
          break;
        }
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      if (nrows > 0 && !has_nan) {
        zone->kind = kZoneDouble;
        zone->min_f64 = mn;
        zone->max_f64 = mx;
      }
      return kEncPlain;
    }
    case TypeKind::kString:
      break;
  }
  // Strings: try the dictionary, coding each row as it is looked up, then
  // let RLE-of-codes compete with one-code-per-row on estimated size.
  std::unordered_map<std::string_view, uint8_t> dict;
  std::vector<std::string_view> order;
  std::vector<uint8_t> codes(nrows);
  bool dictionary_ok = nrows > 0;
  size_t dict_section = 2;  // u16 dict size + entries
  for (uint32_t i = 0; i < nrows && dictionary_ok; ++i) {
    const std::string_view s = col.StringViewAt(i);
    auto it = dict.find(s);
    if (it != dict.end()) {
      codes[i] = it->second;
      continue;
    }
    if (dict.size() == 256 || s.size() > 255) {
      dictionary_ok = false;
      break;
    }
    codes[i] = static_cast<uint8_t>(dict.size());
    dict.emplace(s, codes[i]);
    order.push_back(s);
    dict_section += 1 + s.size();
  }
  if (!dictionary_ok) {
    // Plain payload: the sub-format byte, nrows u32 end offsets, the bytes.
    out->PutU8(kStringPlain);
    uint32_t offset = 0;
    for (uint32_t i = 0; i < nrows; ++i) {
      offset += static_cast<uint32_t>(col.StringViewAt(i).size());
      out->PutU32(offset);
    }
    for (uint32_t i = 0; i < nrows; ++i) {
      const std::string_view s = col.StringViewAt(i);
      out->PutBytes(s.data(), s.size());
    }
    return kEncPlain;
  }
  zone->kind = kZoneDict;
  for (std::string_view s : order) zone->fingerprint |= DictFingerprintBit(s);
  uint32_t nruns = 0;
  for (uint32_t i = 0; i < nrows; ++i) {
    nruns += static_cast<uint32_t>(i == 0 || codes[i] != codes[i - 1]);
  }
  const size_t dict_bytes = 1 + dict_section + nrows;
  const size_t dict_rle_bytes = dict_section + 4 + nruns * 5;
  if (dict_rle_bytes >= dict_bytes) {
    out->PutU8(kStringDictionary);
    out->PutU16(static_cast<uint16_t>(order.size()));
    for (std::string_view s : order) {
      out->PutU8(static_cast<uint8_t>(s.size()));
      out->PutBytes(s.data(), s.size());
    }
    out->PutBytes(codes.data(), codes.size());
    return kEncDict;
  }
  out->PutU16(static_cast<uint16_t>(order.size()));
  for (std::string_view s : order) {
    out->PutU8(static_cast<uint8_t>(s.size()));
    out->PutBytes(s.data(), s.size());
  }
  out->PutU32(nruns);
  for (uint32_t i = 0; i < nrows;) {
    uint32_t j = i + 1;
    while (j < nrows && codes[j] == codes[i]) ++j;
    out->PutU8(codes[i]);
    i = j;
  }
  for (uint32_t i = 0; i < nrows;) {
    uint32_t j = i + 1;
    while (j < nrows && codes[j] == codes[i]) ++j;
    out->PutU32(j - i);
    i = j;
  }
  return kEncDictRle;
}

/// Serializes one column's buffered values for a split as a framed block.
void EncodeColumnBlock(const ColumnVector& col, ByteWriter* out) {
  ZoneMap zone;
  out->PutU32(kCifMagic);
  out->PutU32(static_cast<uint32_t>(col.size()));
  const uint8_t encoding = EncodeColumnPayload(col, out, &zone);
  const size_t zone_begin = out->size();
  out->PutU8(encoding);
  out->PutU8(zone.kind);
  switch (zone.kind) {
    case kZoneInt:
      out->PutI64(zone.min_i64);
      out->PutI64(zone.max_i64);
      break;
    case kZoneDouble:
      out->PutF64(zone.min_f64);
      out->PutF64(zone.max_f64);
      break;
    case kZoneDict:
      out->PutU64(zone.fingerprint);
      break;
    default:
      break;
  }
  out->PutU32(static_cast<uint32_t>(out->size() - zone_begin));
  out->PutU32(kCifFooterMagic);
}

/// A block's parts, borrowed from the raw block bytes.
struct BlockView {
  uint32_t nrows = 0;
  const uint8_t* payload = nullptr;
  size_t payload_len = 0;
  /// Footer encoding tag (storage/column_codec.h).
  uint8_t encoding = kEncPlain;
  ZoneMap zone;
};

/// Parses the framing and footer of the block [data, data + size).
Status ParseFramedBlock(const uint8_t* data, size_t size, BlockView* out) {
  // Minimum block: header (8) + footer (encoding tag, zone kind, zone_len,
  // magic).
  if (size < 18u) {
    return Status::IoError("truncated CIF column block");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, data, sizeof(magic));
  if (magic != kCifMagic) {
    return Status::IoError("CIF block magic mismatch");
  }
  std::memcpy(&out->nrows, data + 4, sizeof(uint32_t));
  uint32_t footer_magic = 0;
  uint32_t zone_len = 0;
  std::memcpy(&footer_magic, data + size - 4, sizeof(uint32_t));
  std::memcpy(&zone_len, data + size - 8, sizeof(uint32_t));
  if (footer_magic != kCifFooterMagic) {
    return Status::IoError("bad CIF footer magic");
  }
  if (zone_len < 2u || zone_len > size - 16) {
    return Status::IoError("truncated CIF zone-map footer");
  }
  const size_t zone_begin = size - 8 - zone_len;
  out->payload = data + 8;
  out->payload_len = zone_begin - 8;
  ByteReader zone(data + zone_begin, zone_len);
  CLY_RETURN_IF_ERROR(zone.GetU8(&out->encoding));
  if (out->encoding >= kEncCount) {
    return Status::IoError("unknown CIF block encoding tag");
  }
  uint8_t kind = 0;
  CLY_RETURN_IF_ERROR(zone.GetU8(&kind));
  out->zone.kind = kind;
  switch (kind) {
    case kZoneNone:
      break;
    case kZoneInt:
      CLY_RETURN_IF_ERROR(zone.GetI64(&out->zone.min_i64));
      CLY_RETURN_IF_ERROR(zone.GetI64(&out->zone.max_i64));
      break;
    case kZoneDouble:
      CLY_RETURN_IF_ERROR(zone.GetF64(&out->zone.min_f64));
      CLY_RETURN_IF_ERROR(zone.GetF64(&out->zone.max_f64));
      break;
    case kZoneDict:
      CLY_RETURN_IF_ERROR(zone.GetU64(&out->zone.fingerprint));
      break;
    default:
      return Status::IoError("unknown CIF zone-map kind");
  }
  if (!zone.AtEnd()) {
    return Status::IoError("trailing bytes in CIF zone-map footer");
  }
  return Status::OK();
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Parses a dict-RLE string payload in place: dictionary entries as
/// views over the payload, then the run arrays. The u32 run lengths follow
/// the one-byte codes, so they are unaligned and read with LoadU32.
/// Validates codes and run totals so every later access is in range.
Status ParseDictRlePayload(const uint8_t* payload, size_t len, uint32_t nrows,
                           std::vector<std::string_view>* dict,
                           const uint8_t** run_codes,
                           const uint8_t** run_lengths, uint32_t* nruns) {
  ByteReader reader(payload, len);
  uint16_t dict_size = 0;
  CLY_RETURN_IF_ERROR(reader.GetU16(&dict_size));
  dict->reserve(dict_size);
  for (uint16_t d = 0; d < dict_size; ++d) {
    uint8_t len8 = 0;
    CLY_RETURN_IF_ERROR(reader.GetU8(&len8));
    if (reader.remaining() < len8) {
      return Status::IoError("truncated dictionary entry");
    }
    dict->emplace_back(
        reinterpret_cast<const char*>(payload) + reader.position(), len8);
    CLY_RETURN_IF_ERROR(reader.Skip(len8));
  }
  CLY_RETURN_IF_ERROR(reader.GetU32(nruns));
  if (*nruns > nrows) {
    return Status::IoError("dict-RLE run count exceeds block row count");
  }
  if (reader.remaining() < static_cast<size_t>(*nruns) * 5) {
    return Status::IoError("truncated dict-RLE runs");
  }
  *run_codes = payload + reader.position();
  *run_lengths = *run_codes + *nruns;
  uint64_t total = 0;
  for (uint32_t r = 0; r < *nruns; ++r) {
    if ((*run_codes)[r] >= dict->size()) {
      return Status::IoError("dictionary code out of range");
    }
    const uint32_t length = LoadU32(*run_lengths + 4 * r);
    if (length == 0) return Status::IoError("empty dict-RLE run");
    total += length;
  }
  if (total != nrows) {
    return Status::IoError("dict-RLE run lengths disagree with row count");
  }
  return Status::OK();
}

/// Plain and dictionary string payloads lead with a sub-format byte; the
/// footer tag must agree with that byte or the block is corrupt.
Status CheckStringSubFormat(const uint8_t* payload, size_t len, uint32_t nrows,
                            uint8_t encoding) {
  if (nrows == 0) return Status::OK();
  if (len < 1) return Status::IoError("truncated string column block");
  const uint8_t expected =
      encoding == kEncDict ? kStringDictionary : kStringPlain;
  if (payload[0] != expected) {
    return Status::IoError("string sub-format disagrees with encoding tag");
  }
  return Status::OK();
}

// --- Predicate pushdown -----------------------------------------------------
// The scan only understands single-column leaf comparisons from the query's
// top-level conjunction. Everything it prunes would also be pruned by the
// engine's own predicate, and anything it does not understand it leaves in
// place, so acting on a ScanSpec is always sound — provided each test is
// *exact*: a pushed leaf must never drop a row the full predicate would
// accept. That is why operand extraction below rejects literals whose kind
// cannot be compared exactly against the column's type.

bool Int64Operand(const Value& v, int64_t* out) {
  if (v.kind() == TypeKind::kInt32) {
    *out = v.i32();
    return true;
  }
  if (v.kind() == TypeKind::kInt64) {
    *out = v.i64();
    return true;
  }
  return false;
}

// Exact double view of a literal. int64 literals beyond 2^53 would round,
// so only int32 and double literals qualify against double columns.
bool DoubleOperand(const Value& v, double* out) {
  if (v.kind() == TypeKind::kDouble) {
    *out = v.f64();
    return true;
  }
  if (v.kind() == TypeKind::kInt32) {
    *out = static_cast<double>(v.i32());
    return true;
  }
  return false;
}

const std::string* StringOperand(const Value& v) {
  return v.kind() == TypeKind::kString ? &v.str() : nullptr;
}

bool IsScanLeaf(const Predicate& p) {
  switch (p.kind()) {
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

/// Expresses an integer range leaf as inclusive [lo, hi] bounds (an empty
/// range is lo > hi). kNe/kIn are handled separately. Returns false when the
/// operand kinds are not exactly integer-comparable, in which case the
/// caller must not prune with this leaf.
bool IntLeafBounds(const Predicate& p, int64_t* lo, int64_t* hi) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  int64_t v = 0;
  switch (p.kind()) {
    case Predicate::Kind::kEq:
      if (!Int64Operand(p.lo(), &v)) return false;
      *lo = *hi = v;
      return true;
    case Predicate::Kind::kLt:
      if (!Int64Operand(p.lo(), &v)) return false;
      *lo = kMin;
      if (v == kMin) {
        *lo = 0;
        *hi = -1;  // empty
      } else {
        *hi = v - 1;
      }
      return true;
    case Predicate::Kind::kLe:
      if (!Int64Operand(p.lo(), &v)) return false;
      *lo = kMin;
      *hi = v;
      return true;
    case Predicate::Kind::kGt:
      if (!Int64Operand(p.lo(), &v)) return false;
      *hi = kMax;
      if (v == kMax) {
        *lo = 0;
        *hi = -1;  // empty
      } else {
        *lo = v + 1;
      }
      return true;
    case Predicate::Kind::kGe:
      if (!Int64Operand(p.lo(), &v)) return false;
      *lo = v;
      *hi = kMax;
      return true;
    case Predicate::Kind::kBetween: {
      int64_t a = 0, b = 0;
      if (!Int64Operand(p.lo(), &a) || !Int64Operand(p.hi(), &b)) return false;
      *lo = a;
      *hi = b;
      return true;
    }
    default:
      return false;
  }
}

/// True when the zone map proves no row of the block can satisfy the leaf.
bool ZoneRefutesLeaf(const ZoneMap& zone, TypeKind type, const Predicate& p) {
  switch (zone.kind) {
    case kZoneInt: {
      if (type != TypeKind::kInt32 && type != TypeKind::kInt64) return false;
      int64_t v = 0;
      switch (p.kind()) {
        case Predicate::Kind::kNe:
          // Only refutable when the block is constant at the probed value.
          return Int64Operand(p.lo(), &v) && zone.min_i64 == v &&
                 zone.max_i64 == v;
        case Predicate::Kind::kIn: {
          for (const Value& cand : p.in_values()) {
            if (!Int64Operand(cand, &v)) return false;
            if (v >= zone.min_i64 && v <= zone.max_i64) return false;
          }
          return true;
        }
        default: {
          int64_t lo = 0, hi = 0;
          if (!IntLeafBounds(p, &lo, &hi)) return false;
          return hi < zone.min_i64 || lo > zone.max_i64;
        }
      }
    }
    case kZoneDouble: {
      if (type != TypeKind::kDouble) return false;
      double a = 0, b = 0;
      switch (p.kind()) {
        case Predicate::Kind::kEq:
          return DoubleOperand(p.lo(), &a) &&
                 (a < zone.min_f64 || a > zone.max_f64);
        case Predicate::Kind::kLt:
          return DoubleOperand(p.lo(), &a) && zone.min_f64 >= a;
        case Predicate::Kind::kLe:
          return DoubleOperand(p.lo(), &a) && zone.min_f64 > a;
        case Predicate::Kind::kGt:
          return DoubleOperand(p.lo(), &a) && zone.max_f64 <= a;
        case Predicate::Kind::kGe:
          return DoubleOperand(p.lo(), &a) && zone.max_f64 < a;
        case Predicate::Kind::kBetween:
          return DoubleOperand(p.lo(), &a) && DoubleOperand(p.hi(), &b) &&
                 (zone.max_f64 < a || zone.min_f64 > b);
        case Predicate::Kind::kIn: {
          for (const Value& cand : p.in_values()) {
            if (!DoubleOperand(cand, &a)) return false;
            if (a >= zone.min_f64 && a <= zone.max_f64) return false;
          }
          return true;
        }
        default:
          return false;
      }
    }
    case kZoneDict: {
      if (type != TypeKind::kString) return false;
      if (p.kind() == Predicate::Kind::kEq) {
        const std::string* s = StringOperand(p.lo());
        return s != nullptr &&
               (zone.fingerprint & DictFingerprintBit(*s)) == 0;
      }
      if (p.kind() == Predicate::Kind::kIn) {
        for (const Value& cand : p.in_values()) {
          const std::string* s = StringOperand(cand);
          if (s == nullptr) return false;
          if ((zone.fingerprint & DictFingerprintBit(*s)) != 0) return false;
        }
        return !p.in_values().empty();
      }
      return false;
    }
    default:
      return false;
  }
}

/// Branchless selection update over a raw integer value array.
template <typename T>
void ApplyIntegerLeaf(const Predicate& p, const T* vals, uint32_t n,
                      uint8_t* sel) {
  int64_t v = 0;
  switch (p.kind()) {
    case Predicate::Kind::kNe:
      if (!Int64Operand(p.lo(), &v)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(static_cast<int64_t>(vals[i]) != v);
      }
      return;
    case Predicate::Kind::kIn: {
      std::vector<int64_t> set;
      set.reserve(p.in_values().size());
      for (const Value& cand : p.in_values()) {
        if (!Int64Operand(cand, &v)) return;
        set.push_back(v);
      }
      for (uint32_t i = 0; i < n; ++i) {
        const int64_t x = vals[i];
        uint8_t hit = 0;
        for (int64_t s : set) hit |= static_cast<uint8_t>(x == s);
        sel[i] &= hit;
      }
      return;
    }
    default: {
      int64_t lo = 0, hi = 0;
      if (!IntLeafBounds(p, &lo, &hi)) return;
      for (uint32_t i = 0; i < n; ++i) {
        const int64_t x = vals[i];
        sel[i] &= static_cast<uint8_t>((x >= lo) & (x <= hi));
      }
      return;
    }
  }
}

void ApplyDoubleLeaf(const Predicate& p, const double* vals, uint32_t n,
                     uint8_t* sel) {
  double a = 0, b = 0;
  switch (p.kind()) {
    case Predicate::Kind::kEq:
      if (!DoubleOperand(p.lo(), &a)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(vals[i] == a);
      }
      return;
    case Predicate::Kind::kNe:
      if (!DoubleOperand(p.lo(), &a)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(vals[i] != a);
      }
      return;
    case Predicate::Kind::kLt:
      if (!DoubleOperand(p.lo(), &a)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(vals[i] < a);
      }
      return;
    case Predicate::Kind::kLe:
      if (!DoubleOperand(p.lo(), &a)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(vals[i] <= a);
      }
      return;
    case Predicate::Kind::kGt:
      if (!DoubleOperand(p.lo(), &a)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(vals[i] > a);
      }
      return;
    case Predicate::Kind::kGe:
      if (!DoubleOperand(p.lo(), &a)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>(vals[i] >= a);
      }
      return;
    case Predicate::Kind::kBetween:
      if (!DoubleOperand(p.lo(), &a) || !DoubleOperand(p.hi(), &b)) return;
      for (uint32_t i = 0; i < n; ++i) {
        sel[i] &= static_cast<uint8_t>((vals[i] >= a) & (vals[i] <= b));
      }
      return;
    case Predicate::Kind::kIn: {
      std::vector<double> set;
      set.reserve(p.in_values().size());
      for (const Value& cand : p.in_values()) {
        if (!DoubleOperand(cand, &a)) return;
        set.push_back(a);
      }
      for (uint32_t i = 0; i < n; ++i) {
        uint8_t hit = 0;
        for (double s : set) hit |= static_cast<uint8_t>(vals[i] == s);
        sel[i] &= hit;
      }
      return;
    }
    default:
      return;
  }
}

/// Scalar string leaf test; `true` keeps the row (conservative on operand
/// kind mismatch, so pruning stays sound).
bool TestStringLeaf(std::string_view s, const Predicate& p) {
  const std::string* a = StringOperand(p.lo());
  switch (p.kind()) {
    case Predicate::Kind::kEq:
      return a == nullptr || s == *a;
    case Predicate::Kind::kNe:
      return a == nullptr || s != *a;
    case Predicate::Kind::kLt:
      return a == nullptr || s < *a;
    case Predicate::Kind::kLe:
      return a == nullptr || s <= *a;
    case Predicate::Kind::kGt:
      return a == nullptr || s > *a;
    case Predicate::Kind::kGe:
      return a == nullptr || s >= *a;
    case Predicate::Kind::kBetween: {
      const std::string* b = StringOperand(p.hi());
      if (a == nullptr || b == nullptr) return true;
      return s >= *a && s <= *b;
    }
    case Predicate::Kind::kIn: {
      for (const Value& cand : p.in_values()) {
        const std::string* t = StringOperand(cand);
        if (t == nullptr) return true;
        if (s == *t) return true;
      }
      return false;
    }
    default:
      return true;
  }
}

/// Scalar integer leaf test with the exact keep/drop semantics of
/// ApplyIntegerLeaf (operand-kind mismatch keeps the row), so code tables
/// built from it select the same rows the vector kernel would.
bool TestIntLeaf(int64_t x, const Predicate& p) {
  int64_t v = 0;
  switch (p.kind()) {
    case Predicate::Kind::kNe:
      return !Int64Operand(p.lo(), &v) || x != v;
    case Predicate::Kind::kIn: {
      for (const Value& cand : p.in_values()) {
        if (!Int64Operand(cand, &v)) return true;
        if (x == v) return true;
      }
      return false;
    }
    default: {
      int64_t lo = 0, hi = 0;
      if (!IntLeafBounds(p, &lo, &hi)) return true;
      return x >= lo && x <= hi;
    }
  }
}

/// Derives a zone map from a packed block's representable range: FoR bounds
/// values by [base, base + 2^width - 1], bit-packing by [0, 2^width - 1].
/// Conservative (the true max may be lower), so it only ever skips blocks a
/// real zone map over the same data would also skip.
bool PackedRangeZone(const IntBlockView& v, ZoneMap* zone) {
  if (v.encoding != kEncBitPack && v.encoding != kEncFor) return false;
  zone->kind = kZoneInt;
  zone->min_i64 = v.base;
  zone->max_i64 =
      v.base + static_cast<int64_t>((uint64_t{1} << v.width) - 1);
  return true;
}

// --- Split reader -----------------------------------------------------------

// SplitColumn string representations (the int representations live in the
// codec's IntBlockView).
constexpr uint8_t kStrRepPlain = 0;
constexpr uint8_t kStrRepDict = 1;
constexpr uint8_t kStrRepDictRle = 2;

/// One column of a split, read in place from the datanode's block buffer:
/// fixed-width arrays directly (the payload starts 8-aligned), strings and
/// encoded integers through their codes and runs, so a filtered-out row is
/// never decoded at all. Run-encoded columns keep a cursor on the run that
/// holds the current batch's first row; batches advance it, so the runs are
/// walked once per split.
struct SplitColumn {
  const Field* field = nullptr;
  /// Keeps the block bytes alive; null for a column image, whose bytes the
  /// caller keeps alive.
  hdfs::BlockBuffer block;
  BlockView view;
  /// Validated integer payload view.
  IntBlockView iview;
  /// Plain-encoding equivalent byte size (compression accounting).
  uint64_t raw_bytes = 0;
  // String sub-state.
  uint8_t str_rep = kStrRepPlain;
  std::vector<std::string_view> dict;     // dictionary entries, in code order
  const uint8_t* codes = nullptr;         // nrows codes (dictionary mode)
  const uint8_t* run_codes = nullptr;     // dict-RLE: one code per run
  const uint8_t* run_lengths = nullptr;   // dict-RLE: unaligned u32 per run
  uint32_t str_nruns = 0;
  const uint8_t* offsets = nullptr;       // plain: unaligned u32 end offsets
  const char* plain_base = nullptr;       // string bytes (plain mode)
  // Run cursor: run `run` starts at row `run_row`.
  uint32_t run = 0;
  uint32_t run_row = 0;

  const int32_t* i32() const {
    return reinterpret_cast<const int32_t*>(iview.plain);
  }
  const int64_t* i64() const {
    return reinterpret_cast<const int64_t*>(iview.plain);
  }
  const double* f64() const {
    return reinterpret_cast<const double*>(view.payload);
  }
  std::string_view StringAt(uint32_t i) const {
    if (str_rep == kStrRepDict) return dict[codes[i]];
    const uint32_t begin = i == 0 ? 0 : LoadU32(offsets + 4 * (i - 1));
    return std::string_view(plain_base + begin,
                            LoadU32(offsets + 4 * i) - begin);
  }
  bool has_runs() const {
    return iview.encoding == kEncRle || str_rep == kStrRepDictRle;
  }
  uint32_t RunLength(uint32_t r) const {
    return str_rep == kStrRepDictRle ? LoadU32(run_lengths + 4 * r)
                                     : iview.run_lengths[r];
  }
  /// Moves the cursor forward to the run holding `row` (< nrows).
  void SeekRun(uint32_t row) {
    while (run_row + RunLength(run) <= row) run_row += RunLength(run++);
  }
};

/// Calls f(run, lo, hi) for every run overlapping the rows [begin, end),
/// with [lo, hi) the run's rows clamped to the batch and relative to
/// `begin`. The column's cursor must already hold `begin`.
template <typename F>
void ForEachRun(const SplitColumn& c, uint32_t begin, uint32_t end, F f) {
  uint32_t r = c.run;
  for (uint32_t start = c.run_row; start < end; ++r) {
    const uint32_t stop = start + c.RunLength(r);
    f(r, std::max(start, begin) - begin, std::min(stop, end) - begin);
    start = stop;
  }
}

/// Unpacks the packed codes of rows [begin, begin + n), without the FoR
/// base. Whole groups of 64 go through BitUnpackAll when the first row
/// starts a word, which every batch starting at a multiple of 64 rows does.
void UnpackCodes(const IntBlockView& v, uint32_t begin, uint32_t n,
                 uint64_t* out) {
  const uint64_t bit = uint64_t{begin} * static_cast<uint64_t>(v.width);
  if (bit % 64 == 0) {
    BitUnpackAll(v.words + bit / 64, n, v.width, out);
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      out[i] = BitUnpackOne(v.words, begin + i, v.width);
    }
  }
}

/// Decodes the integer rows [begin, begin + n) into `out`, widened to
/// int64.
void DecodeInts(const SplitColumn& c, uint32_t begin, uint32_t n,
                int64_t* out) {
  const IntBlockView& v = c.iview;
  switch (v.encoding) {
    case kEncPlain:
      if (c.field->type == TypeKind::kInt32) {
        std::copy(c.i32() + begin, c.i32() + begin + n, out);
      } else {
        std::memcpy(out, c.i64() + begin, n * sizeof(int64_t));
      }
      return;
    case kEncRle:
      ForEachRun(c, begin, begin + n, [&](uint32_t r, uint32_t lo, uint32_t hi) {
        std::fill(out + lo, out + hi, v.run_values[r]);
      });
      return;
    default:
      UnpackCodes(v, begin, n, reinterpret_cast<uint64_t*>(out));
      if (v.base != 0) {
        for (uint32_t i = 0; i < n; ++i) out[i] += v.base;
      }
      return;
  }
}

/// Validates the payload framing for in-place access and, for strings,
/// parses the dictionary/offset/run structure (validating every code up
/// front so later gathers cannot index out of range). The footer encoding
/// tag governs the payload layout.
Status ParseColumnPayload(SplitColumn* c) {
  const uint8_t* payload = c->view.payload;
  const uint32_t nrows = c->view.nrows;
  const uint8_t block_enc = c->view.encoding;
  ByteReader reader(payload, c->view.payload_len);
  switch (c->field->type) {
    case TypeKind::kInt32:
    case TypeKind::kInt64:
      c->raw_bytes =
          nrows * (c->field->type == TypeKind::kInt32 ? 4ull : 8ull);
      return ParseIntPayload(payload, c->view.payload_len, nrows,
                             c->field->type, block_enc, &c->iview);
    case TypeKind::kDouble:
      if (block_enc != kEncPlain) {
        return Status::IoError("double column block with non-plain encoding");
      }
      if (reader.remaining() < nrows * sizeof(double)) {
        return Status::IoError("truncated double column block");
      }
      c->raw_bytes = nrows * 8ull;
      return Status::OK();
    case TypeKind::kString:
      break;
  }
  if (nrows == 0) return Status::OK();
  if (block_enc == kEncDictRle) {
    c->str_rep = kStrRepDictRle;
    CLY_RETURN_IF_ERROR(ParseDictRlePayload(payload, c->view.payload_len,
                                            nrows, &c->dict, &c->run_codes,
                                            &c->run_lengths, &c->str_nruns));
    c->raw_bytes = 1 + 4ull * nrows;
    for (uint32_t r = 0; r < c->str_nruns; ++r) {
      c->raw_bytes += static_cast<uint64_t>(c->RunLength(r)) *
                      c->dict[c->run_codes[r]].size();
    }
    return Status::OK();
  }
  if (block_enc != kEncPlain && block_enc != kEncDict) {
    return Status::IoError("string column block with integer encoding");
  }
  CLY_RETURN_IF_ERROR(
      CheckStringSubFormat(payload, c->view.payload_len, nrows, block_enc));
  uint8_t encoding = 0;
  CLY_RETURN_IF_ERROR(reader.GetU8(&encoding));
  if (encoding == kStringDictionary) {
    c->str_rep = kStrRepDict;
    uint16_t dict_size = 0;
    CLY_RETURN_IF_ERROR(reader.GetU16(&dict_size));
    c->dict.reserve(dict_size);
    for (uint16_t d = 0; d < dict_size; ++d) {
      uint8_t len8 = 0;
      CLY_RETURN_IF_ERROR(reader.GetU8(&len8));
      if (reader.remaining() < len8) {
        return Status::IoError("truncated dictionary entry");
      }
      c->dict.emplace_back(
          reinterpret_cast<const char*>(payload) + reader.position(), len8);
      CLY_RETURN_IF_ERROR(reader.Skip(len8));
    }
    if (reader.remaining() < nrows) {
      return Status::IoError("truncated dictionary codes");
    }
    c->codes = payload + reader.position();
    const size_t dsize = c->dict.size();
    c->raw_bytes = 1 + 4ull * nrows;
    for (uint32_t i = 0; i < nrows; ++i) {
      if (c->codes[i] >= dsize) {
        return Status::IoError("dictionary code out of range");
      }
      c->raw_bytes += c->dict[c->codes[i]].size();
    }
    return Status::OK();
  }
  if (encoding != kStringPlain) {
    return Status::IoError("unknown string column encoding");
  }
  c->str_rep = kStrRepPlain;
  c->raw_bytes = c->view.payload_len;
  if (reader.remaining() < nrows * sizeof(uint32_t)) {
    return Status::IoError("truncated string offsets");
  }
  c->offsets = payload + reader.position();
  CLY_RETURN_IF_ERROR(reader.Skip(nrows * sizeof(uint32_t)));
  c->plain_base = reinterpret_cast<const char*>(payload) + reader.position();
  const uint32_t total = LoadU32(c->offsets + 4 * (nrows - 1));
  if (reader.remaining() < total) {
    return Status::IoError("truncated string bytes");
  }
  uint32_t prev = 0;
  for (uint32_t i = 0; i < nrows; ++i) {
    const uint32_t end = LoadU32(c->offsets + 4 * i);
    if (end < prev || end > total) {
      return Status::IoError("corrupt string offsets in column block");
    }
    prev = end;
  }
  return Status::OK();
}

/// A pushed leaf bound to its column. Leaves over small-width packed codes
/// and over dictionary codes carry a per-code verdict table, built once per
/// split, so a batch tests codes and never materializes values.
struct BoundLeaf {
  const Predicate* pred;
  int field;
  std::vector<uint8_t> code_ok;
};

struct BoundKeyFilter {
  const ScanKeyFilter* filter;
  int field;
};

/// Selection update of one leaf over the rows [begin, begin + n), in the
/// compressed domain wherever the encoding allows:
///   RLE        one leaf test per run, then a fill per refuted run;
///   bit-pack/  the per-code table on packed codes; wide codes (> 12 bits,
///   FoR        where the table stops paying) decode into `scratch` and run
///              the plain vector kernel;
///   dictionary the per-code table, per run for dict-RLE.
void ApplyLeaf(const BoundLeaf& l, const SplitColumn& c, uint32_t begin,
               uint32_t n, uint8_t* sel, std::vector<int64_t>* scratch) {
  const Predicate& p = *l.pred;
  const IntBlockView& v = c.iview;
  switch (c.field->type) {
    case TypeKind::kDouble:
      ApplyDoubleLeaf(p, c.f64() + begin, n, sel);
      return;
    case TypeKind::kInt32:
    case TypeKind::kInt64:
      if (v.encoding == kEncRle) {
        ForEachRun(c, begin, begin + n,
                   [&](uint32_t r, uint32_t lo, uint32_t hi) {
                     if (!TestIntLeaf(v.run_values[r], p)) {
                       std::fill(sel + lo, sel + hi, uint8_t{0});
                     }
                   });
      } else if (!l.code_ok.empty()) {
        scratch->resize(n);
        auto* codes = reinterpret_cast<uint64_t*>(scratch->data());
        UnpackCodes(v, begin, n, codes);
        for (uint32_t i = 0; i < n; ++i) sel[i] &= l.code_ok[codes[i]];
      } else if (v.encoding == kEncPlain &&
                 c.field->type == TypeKind::kInt32) {
        ApplyIntegerLeaf(p, c.i32() + begin, n, sel);
      } else if (v.encoding == kEncPlain) {
        ApplyIntegerLeaf(p, c.i64() + begin, n, sel);
      } else {
        scratch->resize(n);
        DecodeInts(c, begin, n, scratch->data());
        ApplyIntegerLeaf(p, scratch->data(), n, sel);
      }
      return;
    case TypeKind::kString:
      if (c.str_rep == kStrRepDictRle) {
        ForEachRun(c, begin, begin + n,
                   [&](uint32_t r, uint32_t lo, uint32_t hi) {
                     if (l.code_ok[c.run_codes[r]] == 0) {
                       std::fill(sel + lo, sel + hi, uint8_t{0});
                     }
                   });
      } else if (c.str_rep == kStrRepDict) {
        for (uint32_t i = 0; i < n; ++i) sel[i] &= l.code_ok[c.codes[begin + i]];
      } else {
        for (uint32_t i = 0; i < n; ++i) {
          if (sel[i] != 0 && !TestStringLeaf(c.StringAt(begin + i), p)) {
            sel[i] = 0;
          }
        }
      }
      return;
  }
}

/// Gathers the selected rows (`sel[0, m)`, ascending, relative to `begin`)
/// of an integer column into `out`. RLE columns walk their runs in tandem
/// and give the batch a run overlay, one output run per touched source
/// run; dense selections of packed columns unpack the batch once.
template <typename T>
void GatherInts(const SplitColumn& c, uint32_t begin, uint32_t n,
                const int32_t* sel, int64_t m, std::vector<int64_t>* scratch,
                ColumnVector* col, std::vector<T>* out) {
  const IntBlockView& v = c.iview;
  out->resize(static_cast<size_t>(m));
  if (v.encoding == kEncPlain) {
    const T* vals = reinterpret_cast<const T*>(v.plain) + begin;
    for (int64_t j = 0; j < m; ++j) (*out)[j] = vals[sel[j]];
  } else if (v.encoding == kEncRle) {
    std::vector<int64_t> run_values;
    std::vector<int32_t> run_starts;
    uint32_t r = c.run;
    uint32_t stop = c.run_row + c.RunLength(r);
    for (int64_t j = 0; j < m; ++j) {
      const uint32_t row = begin + static_cast<uint32_t>(sel[j]);
      const bool new_run = j == 0 || stop <= row;
      while (stop <= row) stop += c.RunLength(++r);
      if (new_run) {
        run_values.push_back(v.run_values[r]);
        run_starts.push_back(static_cast<int32_t>(j));
      }
      (*out)[j] = static_cast<T>(v.run_values[r]);
    }
    run_starts.push_back(static_cast<int32_t>(m));
    if (m > 0) col->SetRuns(std::move(run_values), std::move(run_starts));
  } else if (m * 4 >= n) {
    scratch->resize(n);
    DecodeInts(c, begin, n, scratch->data());
    for (int64_t j = 0; j < m; ++j) {
      (*out)[j] = static_cast<T>((*scratch)[sel[j]]);
    }
  } else {
    for (int64_t j = 0; j < m; ++j) {
      (*out)[j] = static_cast<T>(
          v.PackedAt(begin + static_cast<uint32_t>(sel[j])));
    }
  }
}

/// One column block as the reader receives it: its bytes, and the buffer
/// that owns them (null when the caller guarantees their lifetime).
struct ColumnBlockBytes {
  hdfs::BlockBuffer pin;
  const uint8_t* data = nullptr;
  size_t size = 0;
};

/// Hands the reader the block of one field (a schema index): the split's
/// block in that column's DFS file, or that column's block of an image.
using BlockFetch = std::function<Result<ColumnBlockBytes>(int field)>;

/// Block-at-a-time CIF reader (B-CIF, paper §5.3). Open fetches each needed
/// column block in place, with no copy (a datanode's own buffer, or a slice
/// of a column image), parses its framing, and consults the zone maps. Each
/// NextBatch then runs the late-materialization pipeline on that batch's
/// rows alone: the pushed leaves in the compressed domain into a byte mask,
/// a branch-free compaction into a selection vector, the key filters over
/// the unpacked key columns, and one gather of the projection. String views
/// pin the block buffer when there is one.
class CifSplitBatchReader final : public BatchReader {
 public:
  CifSplitBatchReader(SchemaPtr out_schema, const ScanOptions& options)
      : out_schema_(std::move(out_schema)),
        stats_(options.scan_stats != nullptr ? options.scan_stats
                                             : &local_stats_),
        mem_reporter_(options.mem_reporter) {}

  ~CifSplitBatchReader() override {
    if (mem_reporter_ != nullptr && charged_ > 0) {
      mem_reporter_->Release(static_cast<int64_t>(charged_));
    }
  }

  Status Open(const Schema& schema, const ScanOptions& options,
              std::vector<int> projection, const BlockFetch& fetch);

  Result<bool> NextBatch(RowBatch* out, int64_t max_rows) override;

  const SchemaPtr& output_schema() const override { return out_schema_; }

 private:
  /// Selects the survivors of the rows [begin, begin + n) into sel_idx_
  /// (relative to `begin`) and returns how many there are.
  int64_t FilterBatch(uint32_t begin, uint32_t n);
  void Gather(uint32_t begin, uint32_t n, int64_t m, RowBatch* out);
  /// Charges the reporter for what the reader now holds.
  void TrackMemory(const RowBatch& out);

  SchemaPtr out_schema_;
  ScanStats local_stats_;
  ScanStats* stats_;
  std::shared_ptr<MemReporter> mem_reporter_;
  uint64_t charged_ = 0;

  std::vector<SplitColumn> cols_;
  std::vector<int> projection_;
  std::vector<BoundLeaf> leaves_;
  std::vector<BoundKeyFilter> key_filters_;
  uint32_t nrows_ = 0;
  uint32_t next_ = 0;

  // Per-batch scratch, sized to the batch.
  std::vector<uint8_t> sel_;
  std::vector<int32_t> sel_idx_;
  std::vector<int64_t> keys_;
  std::vector<int64_t> scratch_;
};

Status CifSplitBatchReader::Open(const Schema& schema,
                                 const ScanOptions& options,
                                 std::vector<int> projection,
                                 const BlockFetch& fetch) {
  projection_ = std::move(projection);
  // Resolve the spec against the table schema. Unknown columns and
  // non-leaf shapes are simply not pushed (the engine re-checks).
  if (const ScanSpec* spec = options.scan_spec.get()) {
    for (const Predicate::Ptr& p : spec->conjuncts) {
      if (p == nullptr || !IsScanLeaf(*p)) continue;
      const int idx = schema.IndexOf(p->column_name());
      if (idx >= 0) leaves_.push_back({p.get(), idx, {}});
    }
    for (const ScanSpec::KeyFilterEntry& kf : spec->key_filters) {
      if (kf.filter == nullptr) continue;
      const int idx = schema.IndexOf(kf.column);
      if (idx < 0) continue;
      const TypeKind t = schema.field(idx).type;
      if (t == TypeKind::kInt32 || t == TypeKind::kInt64) {
        key_filters_.push_back({kf.filter.get(), idx});
      }
    }
  }

  cols_.resize(static_cast<size_t>(schema.num_fields()));
  bool nrows_known = false;
  uint32_t nrows = 0;
  auto load_column = [&](int field_index) -> Status {
    SplitColumn& c = cols_[static_cast<size_t>(field_index)];
    if (c.field != nullptr) return Status::OK();
    c.field = &schema.field(field_index);
    CLY_ASSIGN_OR_RETURN(ColumnBlockBytes bytes, fetch(field_index));
    c.block = std::move(bytes.pin);
    CLY_RETURN_IF_ERROR(ParseFramedBlock(bytes.data, bytes.size, &c.view));
    if (nrows_known && c.view.nrows != nrows) {
      return Status::IoError(
          StrCat("CIF split columns disagree on row count: ", c.view.nrows,
                 " vs ", nrows));
    }
    nrows = c.view.nrows;
    nrows_known = true;
    CLY_RETURN_IF_ERROR(ParseColumnPayload(&c));
    stats_->bytes_encoded += c.view.payload_len;
    stats_->bytes_raw += c.raw_bytes;
    stats_->blocks_by_encoding[c.view.encoding] += 1;
    return Status::OK();
  };

  // Filter columns load first and their zone maps may skip the split. A
  // packed block's representable range [base, base + 2^width) acts as a
  // second, implicit zone map and composes with the explicit one.
  for (const BoundLeaf& l : leaves_) CLY_RETURN_IF_ERROR(load_column(l.field));
  for (const BoundKeyFilter& kf : key_filters_) {
    CLY_RETURN_IF_ERROR(load_column(kf.field));
  }
  for (const BoundLeaf& l : leaves_) {
    const SplitColumn& c = cols_[static_cast<size_t>(l.field)];
    ZoneMap packed;
    if (ZoneRefutesLeaf(c.view.zone, c.field->type, *l.pred) ||
        (PackedRangeZone(c.iview, &packed) &&
         ZoneRefutesLeaf(packed, c.field->type, *l.pred))) {
      stats_->blocks_skipped += 1;
      stats_->rows_pruned += nrows;
      return Status::OK();
    }
  }
  for (const BoundKeyFilter& kf : key_filters_) {
    const SplitColumn& c = cols_[static_cast<size_t>(kf.field)];
    const ZoneMap& zone = c.view.zone;
    ZoneMap packed;
    if ((zone.kind == kZoneInt &&
         !kf.filter->RangeMightMatch(zone.min_i64, zone.max_i64)) ||
        (PackedRangeZone(c.iview, &packed) &&
         !kf.filter->RangeMightMatch(packed.min_i64, packed.max_i64))) {
      stats_->blocks_skipped += 1;
      stats_->rows_pruned += nrows;
      return Status::OK();
    }
  }

  for (BoundLeaf& l : leaves_) {
    const SplitColumn& c = cols_[static_cast<size_t>(l.field)];
    const IntBlockView& v = c.iview;
    if (c.field->type == TypeKind::kString) {
      for (std::string_view entry : c.dict) {
        l.code_ok.push_back(
            static_cast<uint8_t>(TestStringLeaf(entry, *l.pred)));
      }
    } else if ((v.encoding == kEncBitPack || v.encoding == kEncFor) &&
               v.width <= 12) {
      l.code_ok.resize(size_t{1} << v.width);
      for (size_t code = 0; code < l.code_ok.size(); ++code) {
        l.code_ok[code] = static_cast<uint8_t>(
            TestIntLeaf(v.base + static_cast<int64_t>(code), *l.pred));
      }
    }
  }
  for (int f : projection_) CLY_RETURN_IF_ERROR(load_column(f));
  nrows_ = nrows;
  return Status::OK();
}

int64_t CifSplitBatchReader::FilterBatch(uint32_t begin, uint32_t n) {
  sel_idx_.resize(n);
  int64_t m = n;
  if (leaves_.empty()) {
    for (uint32_t i = 0; i < n; ++i) sel_idx_[i] = static_cast<int32_t>(i);
  } else {
    sel_.assign(n, 1);
    for (const BoundLeaf& l : leaves_) {
      ApplyLeaf(l, cols_[static_cast<size_t>(l.field)], begin, n, sel_.data(),
                &scratch_);
    }
    m = 0;
    for (uint32_t i = 0; i < n; ++i) {
      sel_idx_[static_cast<size_t>(m)] = static_cast<int32_t>(i);
      m += sel_[i];
    }
  }
  for (const BoundKeyFilter& kf : key_filters_) {
    if (m == 0) break;
    keys_.resize(n);
    DecodeInts(cols_[static_cast<size_t>(kf.field)], begin, n, keys_.data());
    m = kf.filter->FilterSelection(keys_.data(), sel_idx_.data(), m);
  }
  return m;
}

void CifSplitBatchReader::Gather(uint32_t begin, uint32_t n, int64_t m,
                                 RowBatch* out) {
  const int32_t* sel = sel_idx_.data();
  for (size_t p = 0; p < projection_.size(); ++p) {
    const SplitColumn& c = cols_[static_cast<size_t>(projection_[p])];
    ColumnVector* col = out->mutable_column(static_cast<int>(p));
    switch (c.field->type) {
      case TypeKind::kInt32:
        GatherInts(c, begin, n, sel, m, &scratch_, col, col->mutable_i32());
        break;
      case TypeKind::kInt64:
        GatherInts(c, begin, n, sel, m, &scratch_, col, col->mutable_i64());
        break;
      case TypeKind::kDouble: {
        std::vector<double>* v = col->mutable_f64();
        v->resize(static_cast<size_t>(m));
        const double* vals = c.f64() + begin;
        for (int64_t j = 0; j < m; ++j) (*v)[j] = vals[sel[j]];
        break;
      }
      case TypeKind::kString: {
        std::vector<std::string_view>* views = col->mutable_str_views();
        views->resize(static_cast<size_t>(m));
        if (c.str_rep == kStrRepDictRle) {
          uint32_t r = c.run;
          uint32_t stop = c.run_row + c.RunLength(r);
          for (int64_t j = 0; j < m; ++j) {
            const uint32_t row = begin + static_cast<uint32_t>(sel[j]);
            while (stop <= row) stop += c.RunLength(++r);
            (*views)[j] = c.dict[c.run_codes[r]];
          }
        } else {
          for (int64_t j = 0; j < m; ++j) {
            (*views)[j] = c.StringAt(begin + static_cast<uint32_t>(sel[j]));
          }
        }
        col->set_string_arena(c.block);
        break;
      }
    }
  }
}

Result<bool> CifSplitBatchReader::NextBatch(RowBatch* out, int64_t max_rows) {
  out->Clear();
  // Batches with no survivor are skipped, so a batch handed out is empty
  // only at the end of the split.
  while (next_ < nrows_) {
    const uint32_t begin = next_;
    const auto n = static_cast<uint32_t>(
        std::min<int64_t>(std::max<int64_t>(max_rows, 1), nrows_ - begin));
    next_ += n;
    for (SplitColumn& c : cols_) {
      if (c.field != nullptr && c.has_runs()) c.SeekRun(begin);
    }
    const int64_t m = FilterBatch(begin, n);
    stats_->rows_pruned += n - static_cast<uint64_t>(m);
    if (m == 0) continue;
    Gather(begin, n, m, out);
    CLY_RETURN_IF_ERROR(out->SealRowCount());
    stats_->rows_read += static_cast<uint64_t>(m);
    TrackMemory(*out);
    return true;
  }
  return false;
}

void CifSplitBatchReader::TrackMemory(const RowBatch& out) {
  uint64_t bytes = sel_.capacity() + sel_idx_.capacity() * sizeof(int32_t) +
                   (keys_.capacity() + scratch_.capacity()) * sizeof(int64_t);
  for (int c = 0; c < out.num_columns(); ++c) {
    bytes += out.column(c).ByteCapacity();
  }
  stats_->mem_peak_bytes = std::max(stats_->mem_peak_bytes, bytes);
  if (mem_reporter_ == nullptr || bytes == charged_) return;
  if (bytes > charged_) {
    mem_reporter_->Consume(static_cast<int64_t>(bytes - charged_));
  } else {
    mem_reporter_->Release(static_cast<int64_t>(charged_ - bytes));
  }
  charged_ = bytes;
}

/// Rows per batch behind the row-at-a-time view.
constexpr int64_t kRowViewBatchRows = 4096;

/// Row-at-a-time view over the batch reader: one batch at a time,
/// materialized row by row.
class CifSplitRowReader final : public RowReader {
 public:
  explicit CifSplitRowReader(std::unique_ptr<CifSplitBatchReader> batches)
      : batches_(std::move(batches)), batch_(batches_->output_schema()) {}

  Result<bool> Next(Row* out) override {
    while (next_ >= batch_.num_rows()) {
      CLY_ASSIGN_OR_RETURN(bool more,
                           batches_->NextBatch(&batch_, kRowViewBatchRows));
      if (!more) return false;
      next_ = 0;
    }
    *out = batch_.GetRow(next_++);
    return true;
  }

  const SchemaPtr& output_schema() const override {
    return batches_->output_schema();
  }

 private:
  std::unique_ptr<CifSplitBatchReader> batches_;
  RowBatch batch_;
  int64_t next_ = 0;
};

/// Opens a batch reader over `schema`'s column blocks as `fetch` hands
/// them out.
Result<std::unique_ptr<CifSplitBatchReader>> OpenCifReader(
    const Schema& schema, const ScanOptions& options, const BlockFetch& fetch) {
  CLY_ASSIGN_OR_RETURN(std::vector<int> projection,
                       ResolveProjection(schema, options));
  auto reader = std::make_unique<CifSplitBatchReader>(
      schema.Project(projection), options);
  CLY_RETURN_IF_ERROR(
      reader->Open(schema, options, std::move(projection), fetch));
  return reader;
}

Result<std::unique_ptr<CifSplitBatchReader>> OpenCifSplit(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  return OpenCifReader(
      *desc.schema, options, [&](int field) -> Result<ColumnBlockBytes> {
        CLY_ASSIGN_OR_RETURN(
            std::unique_ptr<hdfs::DfsReader> reader,
            dfs.Open(ColumnFilePath(desc, desc.schema->field(field).name,
                                    split.segment),
                     options.reader_node, options.stats));
        CLY_ASSIGN_OR_RETURN(hdfs::BlockBuffer block,
                             reader->ReadBlock(split.block_in_segment));
        const uint8_t* data = block->data();
        const size_t size = block->size();
        return ColumnBlockBytes{std::move(block), data, size};
      });
}

class CifTableWriter final : public SplitTableWriter {
 public:
  CifTableWriter(hdfs::MiniDfs* dfs, TableDesc desc, int segment,
                 std::vector<std::unique_ptr<hdfs::DfsWriter>> writers)
      : SplitTableWriter(dfs, std::move(desc)),
        segment_(segment),
        writers_(std::move(writers)) {}

  Status EncodeColumn(const RowBatch& split, int c,
                      std::vector<uint8_t>* out) const override {
    ByteWriter encoded;
    EncodeColumnBlock(split.column(c), &encoded);
    if (encoded.size() > dfs_->block_size()) {
      return Status::InvalidArgument(StrCat(
          "CIF split of column '", desc_.schema->field(c).name, "' is ",
          encoded.size(), " bytes but the HDFS block size is ",
          dfs_->block_size(), "; lower rows_per_split"));
    }
    *out = encoded.Release();
    return Status::OK();
  }

 protected:
  // Split i of every column is block i of its file.
  Status WriteSplit(uint64_t /*rows*/,
                    const std::vector<std::vector<uint8_t>>& columns) override {
    for (size_t c = 0; c < writers_.size(); ++c) {
      CLY_RETURN_IF_ERROR(writers_[c]->Append(columns[c]));
      CLY_RETURN_IF_ERROR(writers_[c]->CloseBlock());
    }
    return Status::OK();
  }

  Status Finish(uint64_t rows) override {
    for (auto& w : writers_) CLY_RETURN_IF_ERROR(w->Close());
    if (segment_ == 0) {
      desc_.num_rows = rows;
      if (!desc_.segment_rows.empty()) desc_.segment_rows = {rows};
    } else {
      // Roll-in: merge this segment into the table's metadata.
      if (desc_.segment_rows.empty()) {
        desc_.segment_rows.push_back(desc_.num_rows);
      }
      desc_.segment_rows.resize(static_cast<size_t>(segment_), 0);
      desc_.segment_rows.push_back(rows);
      desc_.num_rows += rows;
    }
    return SaveTableDesc(dfs_, desc_);
  }

 private:
  const int segment_;
  std::vector<std::unique_ptr<hdfs::DfsWriter>> writers_;
};

}  // namespace

namespace {
Result<std::unique_ptr<SplitTableWriter>> OpenCifSegmentWriter(
    hdfs::MiniDfs* dfs, const TableDesc& desc, int segment) {
  if (desc.rows_per_split == 0) {
    return Status::InvalidArgument("CIF tables need rows_per_split > 0");
  }
  std::vector<std::unique_ptr<hdfs::DfsWriter>> writers;
  writers.reserve(static_cast<size_t>(desc.schema->num_fields()));
  for (const Field& f : desc.schema->fields()) {
    // All column files of a segment join that segment's colocation group.
    CLY_ASSIGN_OR_RETURN(std::unique_ptr<hdfs::DfsWriter> w,
                         dfs->Create(ColumnFilePath(desc, f.name, segment),
                                     ColocationGroup(desc, segment)));
    writers.push_back(std::move(w));
  }
  return std::unique_ptr<SplitTableWriter>(
      new CifTableWriter(dfs, desc, segment, std::move(writers)));
}
}  // namespace

Result<std::unique_ptr<SplitTableWriter>> OpenCifTableWriter(
    hdfs::MiniDfs* dfs, const TableDesc& desc) {
  return OpenCifSegmentWriter(dfs, desc, /*segment=*/0);
}

Result<std::unique_ptr<TableWriter>> AppendCifSegment(hdfs::MiniDfs* dfs,
                                                      const TableDesc& desc) {
  if (desc.format != kFormatCif) {
    return Status::InvalidArgument("roll-in requires a CIF table");
  }
  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<SplitTableWriter> writer,
      OpenCifSegmentWriter(dfs, desc, desc.num_segments()));
  return std::unique_ptr<TableWriter>(std::move(writer));
}

Status RollOutCifSegment(hdfs::MiniDfs* dfs, const TableDesc& desc,
                         int segment) {
  if (segment < 0 || segment >= desc.num_segments()) {
    return Status::InvalidArgument(StrCat("no segment ", segment));
  }
  TableDesc updated = desc;
  if (updated.segment_rows.empty()) {
    updated.segment_rows = {updated.num_rows};
  }
  uint64_t& rows = updated.segment_rows[static_cast<size_t>(segment)];
  if (rows == 0) {
    return Status::FailedPrecondition(
        StrCat("segment ", segment, " was already rolled out"));
  }
  for (const Field& f : desc.schema->fields()) {
    CLY_RETURN_IF_ERROR(dfs->Delete(ColumnFilePath(desc, f.name, segment)));
  }
  updated.num_rows -= rows;
  rows = 0;
  return SaveTableDesc(dfs, updated);
}

Result<std::vector<StorageSplit>> ListCifSplits(const hdfs::MiniDfs& dfs,
                                                const TableDesc& desc) {
  std::vector<StorageSplit> splits;
  // Scheduling weight uses the whole row width (all columns), since that is
  // what a full scan would read.
  const double row_width = desc.schema->AvgRowWidth();
  std::vector<uint64_t> segment_rows = desc.segment_rows;
  if (segment_rows.empty()) segment_rows = {desc.num_rows};
  uint64_t row_base = 0;
  for (int seg = 0; seg < static_cast<int>(segment_rows.size()); ++seg) {
    const uint64_t rows_in_segment = segment_rows[static_cast<size_t>(seg)];
    if (rows_in_segment == 0) continue;  // rolled out
    // The anchor is the first column file; colocation makes every column's
    // block i live on the same nodes.
    const std::string anchor =
        ColumnFilePath(desc, desc.schema->field(0).name, seg);
    CLY_ASSIGN_OR_RETURN(std::shared_ptr<const hdfs::FileInfo> info,
                         dfs.Stat(anchor));
    for (size_t b = 0; b < info->blocks.size(); ++b) {
      StorageSplit split;
      split.table_path = desc.path;
      split.format = desc.format;
      split.index = static_cast<int>(splits.size());
      split.segment = seg;
      split.block_in_segment = static_cast<int>(b);
      split.row_begin = row_base + desc.rows_per_split * b;
      split.row_end = std::min<uint64_t>(row_base + rows_in_segment,
                                         row_base + desc.rows_per_split * (b + 1));
      split.length_bytes = static_cast<uint64_t>(
          static_cast<double>(split.row_end - split.row_begin) * row_width);
      split.preferred_nodes = dfs.AliveReplicas(info->blocks[b]);
      splits.push_back(std::move(split));
    }
    row_base += rows_in_segment;
  }
  return splits;
}

Result<std::unique_ptr<RowReader>> OpenCifSplitRowReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<CifSplitBatchReader> batches,
                       OpenCifSplit(dfs, desc, split, options));
  return std::unique_ptr<RowReader>(new CifSplitRowReader(std::move(batches)));
}

Result<std::unique_ptr<BatchReader>> OpenCifSplitBatchReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<CifSplitBatchReader> batches,
                       OpenCifSplit(dfs, desc, split, options));
  return std::unique_ptr<BatchReader>(std::move(batches));
}

// --- Column images -----------------------------------------------------------
// A whole table in one buffer:
//   [u32 "CIMG"][u32 nfields]
//   [nfields x {u64 offset, u64 length, u64 sum, u64 weighted_sum}]
//   [field 0's CIF block][pad to 8] ... [field n-1's CIF block]
// Every block starts 8-aligned, so a reader scans it in place exactly as it
// scans a DFS block. The two sums cover the block's bytes: any single
// changed byte changes the first, and the second is position-sensitive.

namespace {

constexpr uint32_t kImageMagic = 0x474D4943u;  // "CIMG"
constexpr size_t kImageHeaderBytes = 8;
constexpr size_t kImageEntryBytes = 32;

/// Fletcher-style sums over the block's little-endian words (the tail word
/// zero-padded): two adds per 8 bytes.
void BlockSums(const uint8_t* p, size_t n, uint64_t* sum, uint64_t* weighted) {
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, sizeof(w));
    s1 += w;
    s2 += s1;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, p + i, n - i);
  s1 += tail;
  s2 += s1;
  *sum = s1;
  *weighted = s2;
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::vector<uint8_t> EncodeColumnImage(const RowBatch& table,
                                       const ParallelFor& parallel_for) {
  CLY_CHECK(static_cast<uint64_t>(table.num_rows()) <= UINT32_MAX);
  const int nfields = table.num_columns();
  std::vector<std::vector<uint8_t>> blocks(static_cast<size_t>(nfields));
  const std::function<void(int)> encode = [&](int c) {
    ByteWriter out;
    EncodeColumnBlock(table.column(c), &out);
    blocks[static_cast<size_t>(c)] = out.Release();
  };
  if (parallel_for) {
    parallel_for(nfields, encode);
  } else {
    for (int c = 0; c < nfields; ++c) encode(c);
  }
  size_t size = kImageHeaderBytes + kImageEntryBytes * blocks.size();
  std::vector<size_t> offsets;
  for (const std::vector<uint8_t>& block : blocks) {
    offsets.push_back(size);
    size += (block.size() + 7) & ~size_t{7};
  }
  std::vector<uint8_t> image(size, 0);
  uint8_t* const base = image.data();
  const auto store = [](uint8_t* at, auto v) {
    std::memcpy(at, &v, sizeof(v));
  };
  store(base, kImageMagic);
  store(base + 4, static_cast<uint32_t>(nfields));
  for (size_t c = 0; c < blocks.size(); ++c) {
    const std::vector<uint8_t>& block = blocks[c];
    uint64_t sum = 0;
    uint64_t weighted = 0;
    BlockSums(block.data(), block.size(), &sum, &weighted);
    uint8_t* const entry = base + kImageHeaderBytes + kImageEntryBytes * c;
    store(entry, static_cast<uint64_t>(offsets[c]));
    store(entry + 8, static_cast<uint64_t>(block.size()));
    store(entry + 16, sum);
    store(entry + 24, weighted);
    std::memcpy(base + offsets[c], block.data(), block.size());
  }
  return image;
}

std::vector<uint8_t> EncodeColumnImage(const SchemaPtr& schema,
                                       const std::vector<Row>& rows) {
  RowBatch table(schema);
  for (const Row& row : rows) table.AppendRow(row);
  return EncodeColumnImage(table);
}

Result<std::unique_ptr<BatchReader>> OpenColumnImageReader(
    const Schema& schema, const uint8_t* image, size_t len,
    const ScanOptions& options) {
  if (len < kImageHeaderBytes) {
    return Status::IoError("truncated column image header");
  }
  if (LoadU32(image) != kImageMagic) {
    return Status::IoError("column image magic mismatch");
  }
  const uint32_t nfields = LoadU32(image + 4);
  if (nfields != static_cast<uint32_t>(schema.num_fields())) {
    return Status::IoError(StrCat("column image holds ", nfields,
                                  " columns; the schema has ",
                                  schema.num_fields()));
  }
  const size_t directory_end =
      kImageHeaderBytes + kImageEntryBytes * size_t{nfields};
  if (len < directory_end) {
    return Status::IoError("truncated column image directory");
  }
  if (options.stats != nullptr) {
    options.stats->local_bytes_read += directory_end;
  }
  CLY_ASSIGN_OR_RETURN(
      std::unique_ptr<CifSplitBatchReader> reader,
      OpenCifReader(schema, options, [&](int field) -> Result<ColumnBlockBytes> {
        const uint8_t* const entry =
            image + kImageHeaderBytes +
            kImageEntryBytes * static_cast<size_t>(field);
        const uint64_t offset = LoadU64(entry);
        const uint64_t length = LoadU64(entry + 8);
        if (offset < directory_end || offset > len || length > len - offset) {
          return Status::IoError(StrCat("column image block ", field,
                                        " lies outside the ", len,
                                        "-byte image"));
        }
        const uint8_t* const block = image + offset;
        if (reinterpret_cast<uintptr_t>(block) % 8 != 0) {
          return Status::IoError(
              StrCat("column image block ", field, " is not 8-aligned"));
        }
        const auto size = static_cast<size_t>(length);
        uint64_t sum = 0;
        uint64_t weighted = 0;
        BlockSums(block, size, &sum, &weighted);
        if (sum != LoadU64(entry + 16) || weighted != LoadU64(entry + 24)) {
          return Status::IoError(
              StrCat("column image block ", field, " fails its checksum"));
        }
        if (options.stats != nullptr) options.stats->local_bytes_read += size;
        return ColumnBlockBytes{nullptr, block, size};
      }));
  return std::unique_ptr<BatchReader>(std::move(reader));
}

}  // namespace storage
}  // namespace clydesdale
