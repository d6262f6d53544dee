#include "storage/cif.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "common/strings.h"
#include "storage/byte_io.h"
#include "storage/column_codec.h"
#include "storage/split_util.h"

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
  // Strings: try the dictionary, then let RLE-of-codes compete with
  // one-code-per-row on estimated size.
  std::unordered_map<std::string_view, uint8_t> dict;
  std::vector<std::string_view> order;
  bool dictionary_ok = nrows > 0;
  size_t dict_section = 2;  // u16 dict size + entries
  for (uint32_t i = 0; i < nrows && dictionary_ok; ++i) {
    const std::string_view s = col.StringViewAt(i);
    auto it = dict.find(s);
    if (it != dict.end()) continue;
    if (dict.size() == 256 || s.size() > 255) {
      dictionary_ok = false;
      break;
    }
    dict.emplace(s, static_cast<uint8_t>(dict.size()));
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
  std::vector<uint8_t> codes(nrows);
  uint32_t nruns = 0;
  for (uint32_t i = 0; i < nrows; ++i) {
    codes[i] = dict.find(col.StringViewAt(i))->second;
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

/// Parses a block's framing and footer.
Status ParseFramedBlock(const std::vector<uint8_t>& data, BlockView* out) {
  // Minimum block: header (8) + footer (encoding tag, zone kind, zone_len,
  // magic).
  if (data.size() < 18u) {
    return Status::IoError("truncated CIF column block");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, data.data(), sizeof(magic));
  if (magic != kCifMagic) {
    return Status::IoError("CIF block magic mismatch");
  }
  std::memcpy(&out->nrows, data.data() + 4, sizeof(uint32_t));
  uint32_t footer_magic = 0;
  uint32_t zone_len = 0;
  std::memcpy(&footer_magic, data.data() + data.size() - 4, sizeof(uint32_t));
  std::memcpy(&zone_len, data.data() + data.size() - 8, sizeof(uint32_t));
  if (footer_magic != kCifFooterMagic) {
    return Status::IoError("bad CIF footer magic");
  }
  if (zone_len < 2u || zone_len > data.size() - 16) {
    return Status::IoError("truncated CIF zone-map footer");
  }
  const size_t zone_begin = data.size() - 8 - zone_len;
  out->payload = data.data() + 8;
  out->payload_len = zone_begin - 8;
  ByteReader zone(data.data() + zone_begin, zone_len);
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

/// Parses a dict-RLE string payload in place: dictionary entries as
/// views over the payload, then the run arrays. Validates codes and run
/// totals so every later access is in range.
Status ParseDictRlePayload(const uint8_t* payload, size_t len, uint32_t nrows,
                           std::vector<std::string_view>* dict,
                           const uint8_t** run_codes,
                           std::vector<uint32_t>* run_lengths,
                           uint32_t* nruns) {
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
  CLY_RETURN_IF_ERROR(reader.Skip(*nruns));
  // The u32 lengths follow the one-byte codes, so they are unaligned in
  // the payload: copy them out rather than read through a uint32_t*.
  run_lengths->resize(*nruns);
  std::memcpy(run_lengths->data(), payload + reader.position(),
              static_cast<size_t>(*nruns) * sizeof(uint32_t));
  uint64_t total = 0;
  for (uint32_t r = 0; r < *nruns; ++r) {
    if ((*run_codes)[r] >= dict->size()) {
      return Status::IoError("dictionary code out of range");
    }
    if ((*run_lengths)[r] == 0) return Status::IoError("empty dict-RLE run");
    total += (*run_lengths)[r];
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

// --- Split loader -----------------------------------------------------------

// SplitColumn string representations (the int representations live in the
// codec's IntBlockView).
constexpr uint8_t kStrRepPlain = 0;
constexpr uint8_t kStrRepDict = 1;
constexpr uint8_t kStrRepDictRle = 2;

/// One column of a split: raw block bytes plus borrowed typed views.
/// Fixed-width arrays are read in place (the payload starts 8-aligned);
/// strings and encoded integers stay compressed until gather time — the
/// selection phases below work per run / per packed code, so a filtered-out
/// row is never decoded at all.
struct SplitColumn {
  bool loaded = false;
  const Field* field = nullptr;
  std::shared_ptr<const std::vector<uint8_t>> arena;
  BlockView view;
  /// Validated integer payload view.
  IntBlockView iview;
  std::vector<int32_t> run_starts;  // RLE row prefix: nruns + 1 entries
  /// Plain-encoding equivalent byte size (compression accounting).
  uint64_t raw_bytes = 0;
  // String sub-state.
  uint8_t str_rep = kStrRepPlain;
  std::vector<std::string_view> dict;  // dictionary entries, in code order
  const uint8_t* codes = nullptr;      // nrows codes (dictionary mode)
  const uint8_t* run_codes = nullptr;  // dict-RLE: one code per run
  std::vector<uint32_t> str_run_lengths;  // dict-RLE: one length per run
  uint32_t str_nruns = 0;
  std::vector<int32_t> str_run_starts;  // dict-RLE row prefix
  std::vector<uint32_t> offsets;        // end offsets (plain mode, realigned)
  const char* plain_base = nullptr;     // string bytes (plain mode)

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
    const uint32_t begin = i == 0 ? 0 : offsets[i - 1];
    return std::string_view(plain_base + begin, offsets[i] - begin);
  }
  int64_t KeyAt(uint32_t i) const {
    return field->type == TypeKind::kInt32 ? i32()[i] : i64()[i];
  }
};

/// Builds the row-prefix array for a run list: starts[k] is the first row
/// of run k, with one trailing entry equal to nrows.
template <typename LenT>
void BuildRunStarts(const LenT* lengths, uint32_t nruns,
                    std::vector<int32_t>* starts) {
  starts->resize(nruns + 1);
  int32_t row = 0;
  for (uint32_t r = 0; r < nruns; ++r) {
    (*starts)[r] = row;
    row += static_cast<int32_t>(lengths[r]);
  }
  (*starts)[nruns] = row;
}

/// Selection update for an integer leaf over an encoded column, working in
/// the compressed domain wherever the encoding allows:
///   RLE       one leaf evaluation per run (all rows of a run share a value),
///             then a fill per refuted run — never per surviving row.
///   bit-pack/ small widths precompute a per-code verdict table and test
///   FoR       packed codes against it; the values never materialize. Wide
///             codes (> 12 bits, where the table stops paying) decode into a
///             reused scratch buffer and run the plain vector kernel.
void ApplyIntLeafEncoded(const Predicate& p, const SplitColumn& c,
                         uint32_t nrows, uint8_t* sel,
                         std::vector<int64_t>* scratch) {
  const IntBlockView& v = c.iview;
  switch (v.encoding) {
    case kEncPlain:
      if (c.field->type == TypeKind::kInt32) {
        ApplyIntegerLeaf(p, c.i32(), nrows, sel);
      } else {
        ApplyIntegerLeaf(p, c.i64(), nrows, sel);
      }
      return;
    case kEncRle: {
      std::vector<uint8_t> run_sel(v.nruns, 1);
      ApplyIntegerLeaf(p, v.run_values, v.nruns, run_sel.data());
      for (uint32_t r = 0; r < v.nruns; ++r) {
        if (run_sel[r] == 0) {
          std::fill(sel + c.run_starts[r], sel + c.run_starts[r + 1],
                    uint8_t{0});
        }
      }
      return;
    }
    case kEncBitPack:
    case kEncFor: {
      if (v.width <= 12) {
        const uint32_t ncodes = 1u << v.width;
        std::vector<uint8_t> code_ok(ncodes);
        for (uint32_t code = 0; code < ncodes; ++code) {
          code_ok[code] = static_cast<uint8_t>(
              TestIntLeaf(v.base + static_cast<int64_t>(code), p));
        }
        for (uint32_t i = 0; i < nrows; ++i) {
          sel[i] &= code_ok[BitUnpackOne(v.words, i, v.width)];
        }
        return;
      }
      scratch->resize(nrows);
      BitUnpackAll(v.words, nrows, v.width,
                   reinterpret_cast<uint64_t*>(scratch->data()));
      if (v.base != 0) {
        for (uint32_t i = 0; i < nrows; ++i) (*scratch)[i] += v.base;
      }
      ApplyIntegerLeaf(p, scratch->data(), nrows, sel);
      return;
    }
    default:
      return;
  }
}

/// Gathers the selected rows of a non-plain integer column through `push`
/// (ascending sel_idx; values widened to int64). For RLE the run cursor
/// advances in tandem with the selection and also rebuilds run metadata over
/// the gathered rows — one output run per touched source run, which is valid
/// (though not maximal) run coverage.
template <typename Push>
void GatherIntEncoded(const SplitColumn& c, const std::vector<int32_t>& sel_idx,
                      std::vector<int64_t>* run_values,
                      std::vector<int32_t>* run_starts, Push push) {
  const IntBlockView& v = c.iview;
  if (v.encoding == kEncRle) {
    uint32_t r = 0;
    int64_t last_run = -1;
    int32_t out_row = 0;
    for (int32_t idx : sel_idx) {
      while (c.run_starts[r + 1] <= idx) ++r;
      if (static_cast<int64_t>(r) != last_run) {
        last_run = static_cast<int64_t>(r);
        run_values->push_back(v.run_values[r]);
        run_starts->push_back(out_row);
      }
      push(v.run_values[r]);
      ++out_row;
    }
    run_starts->push_back(out_row);
    return;
  }
  for (int32_t idx : sel_idx) push(v.PackedAt(static_cast<uint64_t>(idx)));
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
    case TypeKind::kInt64: {
      CLY_RETURN_IF_ERROR(ParseIntPayload(payload, c->view.payload_len, nrows,
                                          c->field->type, block_enc,
                                          &c->iview));
      c->raw_bytes =
          nrows * (c->field->type == TypeKind::kInt32 ? 4ull : 8ull);
      if (c->iview.encoding == kEncRle) {
        BuildRunStarts(c->iview.run_lengths, c->iview.nruns, &c->run_starts);
      }
      return Status::OK();
    }
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
                                            &c->str_run_lengths,
                                            &c->str_nruns));
    BuildRunStarts(c->str_run_lengths.data(), c->str_nruns,
                   &c->str_run_starts);
    c->raw_bytes = 1 + 4ull * nrows;
    for (uint32_t r = 0; r < c->str_nruns; ++r) {
      c->raw_bytes += static_cast<uint64_t>(c->str_run_lengths[r]) *
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
  c->offsets.resize(nrows);
  std::memcpy(c->offsets.data(), payload + reader.position(),
              nrows * sizeof(uint32_t));
  CLY_RETURN_IF_ERROR(reader.Skip(nrows * sizeof(uint32_t)));
  c->plain_base = reinterpret_cast<const char*>(payload) + reader.position();
  const uint32_t total = c->offsets.back();
  if (reader.remaining() < total) {
    return Status::IoError("truncated string bytes");
  }
  uint32_t prev = 0;
  for (uint32_t i = 0; i < nrows; ++i) {
    if (c->offsets[i] < prev || c->offsets[i] > total) {
      return Status::IoError("corrupt string offsets in column block");
    }
    prev = c->offsets[i];
  }
  return Status::OK();
}

Result<std::shared_ptr<const std::vector<uint8_t>>> ReadColumnBlockBytes(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const std::string& column, const ScanOptions& options) {
  CLY_ASSIGN_OR_RETURN(std::unique_ptr<hdfs::DfsReader> reader,
                       dfs.Open(ColumnFilePath(desc, column, split.segment),
                                options.reader_node, options.stats));
  uint64_t begin = 0, end = 0;
  internal::BlockByteRange(reader->file_info(), split.block_in_segment, &begin,
                           &end);
  auto data = std::make_shared<std::vector<uint8_t>>(end - begin);
  if (!data->empty()) {
    CLY_RETURN_IF_ERROR(reader->PRead(begin, data->data(), data->size()));
  }
  return std::shared_ptr<const std::vector<uint8_t>>(std::move(data));
}

/// Loads the projected columns of one split into a columnar batch (late
/// materialization): decodes the filter columns first, derives a selection
/// vector on encoded/raw data, and only then materializes the projection for
/// the surviving rows — strings as arena-backed views, never per-row copies.
Result<RowBatch> LoadCifSplit(const hdfs::MiniDfs& dfs, const TableDesc& desc,
                              const StorageSplit& split,
                              const std::vector<int>& projection,
                              const SchemaPtr& out_schema,
                              const ScanOptions& options) {
  const ScanSpec* spec = options.scan_spec.get();
  ScanStats local_stats;
  ScanStats* stats =
      options.scan_stats != nullptr ? options.scan_stats : &local_stats;

  // Resolve the spec against the table schema. Unknown columns and
  // non-leaf shapes are simply not pushed (the engine re-checks).
  struct BoundLeaf {
    const Predicate* pred;
    int field;
  };
  std::vector<BoundLeaf> leaves;
  struct BoundKeyFilter {
    const ScanKeyFilter* filter;
    int field;
  };
  std::vector<BoundKeyFilter> key_filters;
  if (spec != nullptr) {
    for (const Predicate::Ptr& p : spec->conjuncts) {
      if (p == nullptr || !IsScanLeaf(*p)) continue;
      const int idx = desc.schema->IndexOf(p->column_name());
      if (idx >= 0) leaves.push_back({p.get(), idx});
    }
    for (const ScanSpec::KeyFilterEntry& kf : spec->key_filters) {
      if (kf.filter == nullptr) continue;
      const int idx = desc.schema->IndexOf(kf.column);
      if (idx < 0) continue;
      const TypeKind t = desc.schema->field(idx).type;
      if (t == TypeKind::kInt32 || t == TypeKind::kInt64) {
        key_filters.push_back({kf.filter.get(), idx});
      }
    }
  }

  // Filter columns load first (phases 1-2, in field order), then the
  // remaining projected columns (phase 3).
  std::vector<int> filter_fields;
  for (const BoundLeaf& l : leaves) filter_fields.push_back(l.field);
  for (const BoundKeyFilter& kf : key_filters) {
    filter_fields.push_back(kf.field);
  }
  std::sort(filter_fields.begin(), filter_fields.end());
  filter_fields.erase(
      std::unique(filter_fields.begin(), filter_fields.end()),
      filter_fields.end());

  std::vector<SplitColumn> cols(static_cast<size_t>(desc.schema->num_fields()));
  uint32_t nrows = 0;
  bool nrows_known = false;
  auto load_column = [&](int field_index) -> Status {
    SplitColumn& c = cols[static_cast<size_t>(field_index)];
    if (c.loaded) return Status::OK();
    c.field = &desc.schema->field(field_index);
    CLY_ASSIGN_OR_RETURN(c.arena, ReadColumnBlockBytes(dfs, desc, split,
                                                       c.field->name, options));
    stats->arena_bytes += c.arena->size();
    // Charge the arena to the scan's tracker for exactly as long as any
    // reference lives — string columns hand it to the output batch, which
    // outlives this reader (the bytes EXPLAIN ANALYZE must still account).
    c.arena = TrackSharedArena(std::move(c.arena), options.mem_reporter);
    CLY_RETURN_IF_ERROR(ParseFramedBlock(*c.arena, &c.view));
    if (nrows_known && c.view.nrows != nrows) {
      return Status::IoError(
          StrCat("CIF split columns disagree on row count: ", c.view.nrows,
                 " vs ", nrows));
    }
    nrows = c.view.nrows;
    nrows_known = true;
    CLY_RETURN_IF_ERROR(ParseColumnPayload(&c));
    c.loaded = true;
    stats->bytes_encoded += c.view.payload_len;
    stats->bytes_raw += c.raw_bytes;
    stats->blocks_by_encoding[c.view.encoding] += 1;
    return Status::OK();
  };

  // Phase 1: load only the filter columns and consult their zone maps. A
  // packed block's representable range [base, base + 2^width) acts as a
  // second, implicit zone map and composes with the explicit one.
  for (int f : filter_fields) CLY_RETURN_IF_ERROR(load_column(f));

  bool skip_block = false;
  for (const BoundLeaf& l : leaves) {
    const SplitColumn& c = cols[static_cast<size_t>(l.field)];
    ZoneMap packed;
    if (ZoneRefutesLeaf(c.view.zone, c.field->type, *l.pred) ||
        (PackedRangeZone(c.iview, &packed) &&
         ZoneRefutesLeaf(packed, c.field->type, *l.pred))) {
      skip_block = true;
      break;
    }
  }
  if (!skip_block) {
    for (const BoundKeyFilter& kf : key_filters) {
      const SplitColumn& c = cols[static_cast<size_t>(kf.field)];
      const ZoneMap& zone = c.view.zone;
      ZoneMap packed;
      if ((zone.kind == kZoneInt &&
           !kf.filter->RangeMightMatch(zone.min_i64, zone.max_i64)) ||
          (PackedRangeZone(c.iview, &packed) &&
           !kf.filter->RangeMightMatch(packed.min_i64, packed.max_i64))) {
        skip_block = true;
        break;
      }
    }
  }
  RowBatch batch(out_schema);
  if (skip_block) {
    stats->blocks_skipped += 1;
    stats->rows_pruned += nrows;
    CLY_RETURN_IF_ERROR(batch.SealRowCount());
    return batch;
  }

  // Phase 2: per-row selection over the filter columns alone, evaluated in
  // the compressed domain where the encoding allows it: numeric leaves run
  // per run / per packed code (ApplyIntLeafEncoded); dictionary and dict-RLE
  // leaves collapse to a code test; key filters probe only rows that
  // survived the cheaper predicate passes — and RLE key columns pay one
  // membership probe per touched run, not per row.
  const bool any_filter = !leaves.empty() || !key_filters.empty();
  std::vector<uint8_t> sel;
  std::vector<int32_t> sel_idx;
  std::vector<int64_t> scratch;
  if (any_filter) {
    sel.assign(nrows, 1);
    for (const BoundLeaf& l : leaves) {
      const SplitColumn& c = cols[static_cast<size_t>(l.field)];
      switch (c.field->type) {
        case TypeKind::kInt32:
        case TypeKind::kInt64:
          ApplyIntLeafEncoded(*l.pred, c, nrows, sel.data(), &scratch);
          break;
        case TypeKind::kDouble:
          ApplyDoubleLeaf(*l.pred, c.f64(), nrows, sel.data());
          break;
        case TypeKind::kString:
          if (nrows == 0) break;
          if (c.str_rep == kStrRepDictRle) {
            uint8_t code_ok[256];
            const size_t dsize = c.dict.size();
            for (size_t d = 0; d < dsize; ++d) {
              code_ok[d] =
                  static_cast<uint8_t>(TestStringLeaf(c.dict[d], *l.pred));
            }
            for (uint32_t r = 0; r < c.str_nruns; ++r) {
              if (code_ok[c.run_codes[r]] == 0) {
                std::fill(sel.data() + c.str_run_starts[r],
                          sel.data() + c.str_run_starts[r + 1], uint8_t{0});
              }
            }
          } else if (c.str_rep == kStrRepDict) {
            uint8_t code_ok[256];
            const size_t dsize = c.dict.size();
            for (size_t d = 0; d < dsize; ++d) {
              code_ok[d] =
                  static_cast<uint8_t>(TestStringLeaf(c.dict[d], *l.pred));
            }
            for (uint32_t i = 0; i < nrows; ++i) {
              sel[i] &= code_ok[c.codes[i]];
            }
          } else {
            for (uint32_t i = 0; i < nrows; ++i) {
              if (sel[i] != 0 && !TestStringLeaf(c.StringAt(i), *l.pred)) {
                sel[i] = 0;
              }
            }
          }
          break;
      }
    }
    sel_idx.reserve(nrows);
    for (uint32_t i = 0; i < nrows; ++i) {
      if (sel[i] != 0) sel_idx.push_back(static_cast<int32_t>(i));
    }
    for (const BoundKeyFilter& kf : key_filters) {
      const SplitColumn& c = cols[static_cast<size_t>(kf.field)];
      const IntBlockView& v = c.iview;
      size_t kept = 0;
      if (v.encoding == kEncRle) {
        uint32_t r = 0;
        int64_t probed_run = -1;
        bool run_ok = false;
        for (int32_t idx : sel_idx) {
          while (c.run_starts[r + 1] <= idx) ++r;
          if (static_cast<int64_t>(r) != probed_run) {
            probed_run = static_cast<int64_t>(r);
            run_ok = kf.filter->Contains(v.run_values[r]);
          }
          if (run_ok) sel_idx[kept++] = idx;
        }
      } else if (v.encoding == kEncBitPack || v.encoding == kEncFor) {
        for (int32_t idx : sel_idx) {
          if (kf.filter->Contains(v.PackedAt(static_cast<uint64_t>(idx)))) {
            sel_idx[kept++] = idx;
          }
        }
      } else {
        for (int32_t idx : sel_idx) {
          if (kf.filter->Contains(c.KeyAt(static_cast<uint32_t>(idx)))) {
            sel_idx[kept++] = idx;
          }
        }
      }
      sel_idx.resize(kept);
    }
    stats->rows_pruned += nrows - sel_idx.size();
  }

  // Phase 3: materialize the projection for the surviving rows. RLE columns
  // carry their run structure into the batch so the probe layer can keep
  // working per run.
  for (size_t p = 0; p < projection.size(); ++p) {
    CLY_RETURN_IF_ERROR(load_column(projection[p]));
    const SplitColumn& c = cols[static_cast<size_t>(projection[p])];
    const IntBlockView& iv = c.iview;
    ColumnVector* out = batch.mutable_column(static_cast<int>(p));
    const bool is_int = c.field->type == TypeKind::kInt32 ||
                       c.field->type == TypeKind::kInt64;
    if (!any_filter) {
      switch (c.field->type) {
        case TypeKind::kInt32:
        case TypeKind::kInt64:
          DecodeIntView(iv, c.field->type, out);
          if (iv.encoding == kEncRle) {
            out->SetRuns(
                std::vector<int64_t>(iv.run_values, iv.run_values + iv.nruns),
                c.run_starts);
          }
          break;
        case TypeKind::kDouble: {
          auto* v = out->mutable_f64();
          v->resize(nrows);
          std::memcpy(v->data(), c.f64(), nrows * sizeof(double));
          break;
        }
        case TypeKind::kString: {
          auto* views = out->mutable_str_views();
          views->reserve(nrows);
          if (c.str_rep == kStrRepDictRle) {
            for (uint32_t r = 0; r < c.str_nruns; ++r) {
              const std::string_view s = c.dict[c.run_codes[r]];
              for (uint32_t k = 0; k < c.str_run_lengths[r]; ++k) {
                views->push_back(s);
              }
            }
          } else {
            for (uint32_t i = 0; i < nrows; ++i) {
              views->push_back(c.StringAt(i));
            }
          }
          out->set_string_arena(c.arena);
          break;
        }
      }
      continue;
    }
    const size_t selected = sel_idx.size();
    if (is_int && iv.encoding != kEncPlain) {
      std::vector<int64_t> run_values;
      std::vector<int32_t> run_starts;
      if (c.field->type == TypeKind::kInt32) {
        auto* v = out->mutable_i32();
        v->reserve(selected);
        GatherIntEncoded(c, sel_idx, &run_values, &run_starts,
                         [&](int64_t x) {
                           v->push_back(static_cast<int32_t>(x));
                         });
      } else {
        auto* v = out->mutable_i64();
        v->reserve(selected);
        GatherIntEncoded(c, sel_idx, &run_values, &run_starts,
                         [&](int64_t x) { v->push_back(x); });
      }
      if (iv.encoding == kEncRle) {
        out->SetRuns(std::move(run_values), std::move(run_starts));
      }
      continue;
    }
    switch (c.field->type) {
      case TypeKind::kInt32: {
        auto* v = out->mutable_i32();
        v->reserve(selected);
        const int32_t* vals = c.i32();
        for (int32_t idx : sel_idx) v->push_back(vals[idx]);
        break;
      }
      case TypeKind::kInt64: {
        auto* v = out->mutable_i64();
        v->reserve(selected);
        const int64_t* vals = c.i64();
        for (int32_t idx : sel_idx) v->push_back(vals[idx]);
        break;
      }
      case TypeKind::kDouble: {
        auto* v = out->mutable_f64();
        v->reserve(selected);
        const double* vals = c.f64();
        for (int32_t idx : sel_idx) v->push_back(vals[idx]);
        break;
      }
      case TypeKind::kString: {
        auto* views = out->mutable_str_views();
        views->reserve(selected);
        if (c.str_rep == kStrRepDictRle) {
          uint32_t r = 0;
          for (int32_t idx : sel_idx) {
            while (c.str_run_starts[r + 1] <= idx) ++r;
            views->push_back(c.dict[c.run_codes[r]]);
          }
        } else {
          for (int32_t idx : sel_idx) {
            views->push_back(c.StringAt(static_cast<uint32_t>(idx)));
          }
        }
        out->set_string_arena(c.arena);
        break;
      }
    }
  }
  CLY_RETURN_IF_ERROR(batch.SealRowCount());
  stats->rows_read += static_cast<uint64_t>(batch.num_rows());
  return batch;
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

class CifSplitRowReader final : public RowReader {
 public:
  CifSplitRowReader(RowBatch batch, SchemaPtr out_schema)
      : batch_(std::move(batch)), out_schema_(std::move(out_schema)) {}

  Result<bool> Next(Row* out) override {
    if (next_ >= batch_.num_rows()) return false;
    *out = batch_.GetRow(next_++);
    return true;
  }

  const SchemaPtr& output_schema() const override { return out_schema_; }

 private:
  RowBatch batch_;
  SchemaPtr out_schema_;
  int64_t next_ = 0;
};

/// Carries a column's run overlay into a row slice [begin, begin + take):
/// the overlapping runs, clamped to the slice and rebased to row 0.
void SliceRuns(const ColumnVector& src, int64_t begin, int64_t take,
               ColumnVector* dst) {
  if (!src.has_runs() || take <= 0) return;
  const std::vector<int64_t>& rv = src.run_values();
  const std::vector<int32_t>& rs = src.run_starts();
  std::vector<int64_t> nv;
  std::vector<int32_t> ns;
  size_t r = static_cast<size_t>(
                 std::upper_bound(rs.begin(), rs.end(),
                                  static_cast<int32_t>(begin)) -
                 rs.begin()) -
             1;
  const int64_t end = begin + take;
  for (; r + 1 < rs.size() && rs[r] < end; ++r) {
    nv.push_back(rv[r]);
    ns.push_back(
        static_cast<int32_t>(std::max<int64_t>(rs[r], begin) - begin));
  }
  ns.push_back(static_cast<int32_t>(take));
  dst->SetRuns(std::move(nv), std::move(ns));
}

class CifSplitBatchReader final : public BatchReader {
 public:
  CifSplitBatchReader(RowBatch batch, SchemaPtr out_schema)
      : batch_(std::move(batch)), out_schema_(std::move(out_schema)) {}

  Result<bool> NextBatch(RowBatch* out, int64_t max_rows) override {
    out->Clear();
    if (next_ >= batch_.num_rows()) return false;
    const int64_t take = std::min(max_rows, batch_.num_rows() - next_);
    // Columnar copy of the slice: one memcpy-ish loop per column instead of
    // per-row materialization. View-mode string columns stay zero-copy: the
    // slice shares the source's arena; run overlays are clamped to the slice.
    for (int c = 0; c < batch_.num_columns(); ++c) {
      const ColumnVector& src = batch_.column(c);
      ColumnVector* dst = out->mutable_column(c);
      dst->Reserve(take);
      switch (src.type()) {
        case TypeKind::kInt32:
          dst->mutable_i32()->assign(
              src.i32().begin() + next_, src.i32().begin() + next_ + take);
          SliceRuns(src, next_, take, dst);
          break;
        case TypeKind::kInt64:
          dst->mutable_i64()->assign(
              src.i64().begin() + next_, src.i64().begin() + next_ + take);
          SliceRuns(src, next_, take, dst);
          break;
        case TypeKind::kDouble:
          dst->mutable_f64()->assign(
              src.f64().begin() + next_, src.f64().begin() + next_ + take);
          break;
        case TypeKind::kString:
          if (src.is_string_view()) {
            dst->mutable_str_views()->assign(
                src.str_views().begin() + next_,
                src.str_views().begin() + next_ + take);
            dst->set_string_arena(src.string_arena());
          } else {
            dst->mutable_str()->assign(
                src.str().begin() + next_, src.str().begin() + next_ + take);
          }
          break;
      }
    }
    CLY_RETURN_IF_ERROR(out->SealRowCount());
    next_ += take;
    return true;
  }

  const SchemaPtr& output_schema() const override { return out_schema_; }

 private:
  RowBatch batch_;
  SchemaPtr out_schema_;
  int64_t next_ = 0;
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
  CLY_ASSIGN_OR_RETURN(std::vector<int> projection,
                       ResolveProjection(*desc.schema, options));
  SchemaPtr out_schema = desc.schema->Project(projection);
  CLY_ASSIGN_OR_RETURN(
      RowBatch batch,
      LoadCifSplit(dfs, desc, split, projection, out_schema, options));
  return std::unique_ptr<RowReader>(
      new CifSplitRowReader(std::move(batch), std::move(out_schema)));
}

Result<std::unique_ptr<BatchReader>> OpenCifSplitBatchReader(
    const hdfs::MiniDfs& dfs, const TableDesc& desc, const StorageSplit& split,
    const ScanOptions& options) {
  CLY_ASSIGN_OR_RETURN(std::vector<int> projection,
                       ResolveProjection(*desc.schema, options));
  SchemaPtr out_schema = desc.schema->Project(projection);
  CLY_ASSIGN_OR_RETURN(
      RowBatch batch,
      LoadCifSplit(dfs, desc, split, projection, out_schema, options));
  return std::unique_ptr<BatchReader>(
      new CifSplitBatchReader(std::move(batch), std::move(out_schema)));
}

}  // namespace storage
}  // namespace clydesdale
