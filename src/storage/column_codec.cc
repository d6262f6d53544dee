#include "storage/column_codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <utility>

namespace clydesdale {
namespace storage {

namespace {

/// Unsigned range of a block, safe across the full int64 span (max - min as
/// two's-complement subtraction is exact in uint64).
uint64_t RangeOf(int64_t min, int64_t max) {
  return static_cast<uint64_t>(max) - static_cast<uint64_t>(min);
}

template <typename T>
IntBlockStats ComputeStats(const T* vals, uint32_t n) {
  IntBlockStats s;
  s.nrows = n;
  if (n == 0) return s;
  s.min = vals[0];
  s.max = vals[0];
  s.nruns = 1;
  for (uint32_t i = 1; i < n; ++i) {
    const int64_t v = vals[i];
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    s.nruns += static_cast<uint32_t>(vals[i] != vals[i - 1]);
  }
  return s;
}

template <typename T>
void EncodeRle(const T* vals, uint32_t n, uint32_t nruns, ByteWriter* out) {
  out->PutU32(nruns);
  out->PutU32(0);  // pad: the i64 value lane stays 8-aligned
  uint32_t i = 0;
  while (i < n) {
    out->PutI64(static_cast<int64_t>(vals[i]));
    uint32_t j = i + 1;
    while (j < n && vals[j] == vals[i]) ++j;
    i = j;
  }
  i = 0;
  while (i < n) {
    uint32_t j = i + 1;
    while (j < n && vals[j] == vals[i]) ++j;
    out->PutU32(j - i);
    i = j;
  }
}

template <typename T>
void EncodePacked(const T* vals, uint32_t n, int64_t base, int width,
                  ByteWriter* out) {
  std::vector<uint64_t> deltas(n);
  for (uint32_t i = 0; i < n; ++i) {
    deltas[i] = static_cast<uint64_t>(vals[i]) - static_cast<uint64_t>(base);
  }
  std::vector<uint64_t> words(PackedWordCount(n, width), 0);
  BitPack(deltas.data(), n, width, words.data());
  out->PutBytes(words.data(), words.size() * sizeof(uint64_t));
}

template <typename T>
uint8_t EncodeIntPayloadT(const T* vals, uint32_t n, const IntBlockStats& s,
                          ByteWriter* out) {
  const size_t plain_size = n * sizeof(T);
  const size_t rle_size = 8 + static_cast<size_t>(s.nruns) * 12;
  const uint64_t range = RangeOf(s.min, s.max);
  // Widths are clamped to [1, 63]: width 0 (a constant block) always loses
  // to RLE's two-entry cost, and 64-bit lanes never beat plain. Bit-pack
  // stores raw values so its width must cover max; FoR only covers the
  // delta range.
  const int bp_width = std::max(1, BitWidth(static_cast<uint64_t>(s.max)));
  const int for_width = std::max(1, BitWidth(range));
  size_t bitpack_size = std::numeric_limits<size_t>::max();
  if (s.min >= 0 && bp_width <= 63) {
    bitpack_size = 8 + PackedWordCount(n, bp_width) * 8;
  }
  size_t for_size = std::numeric_limits<size_t>::max();
  if (for_width <= 63) {
    for_size = 16 + PackedWordCount(n, for_width) * 8;
  }

  uint8_t best = kEncPlain;
  size_t best_size = plain_size;
  // Tie-break order favors RLE (it enables run-granular probing downstream)
  // over bit-pack over FoR; every alternative must strictly beat plain.
  if (for_size < best_size) {
    best = kEncFor;
    best_size = for_size;
  }
  if (bitpack_size <= best_size && bitpack_size < plain_size) {
    best = kEncBitPack;
    best_size = bitpack_size;
  }
  if (rle_size <= best_size && rle_size < plain_size) {
    best = kEncRle;
    best_size = rle_size;
  }

  switch (best) {
    case kEncRle:
      EncodeRle(vals, n, s.nruns, out);
      break;
    case kEncBitPack:
      out->PutU8(static_cast<uint8_t>(bp_width));
      for (int p = 0; p < 7; ++p) out->PutU8(0);
      EncodePacked(vals, n, /*base=*/0, bp_width, out);
      break;
    case kEncFor:
      out->PutI64(s.min);
      out->PutU8(static_cast<uint8_t>(for_width));
      for (int p = 0; p < 7; ++p) out->PutU8(0);
      EncodePacked(vals, n, s.min, for_width, out);
      break;
    default:
      out->PutBytes(vals, plain_size);
      break;
  }
  return best;
}

template <typename T>
Status CheckValueRange(int64_t lo, int64_t hi) {
  if (lo < static_cast<int64_t>(std::numeric_limits<T>::min()) ||
      hi > static_cast<int64_t>(std::numeric_limits<T>::max())) {
    return Status::IoError("encoded value out of range for column type");
  }
  return Status::OK();
}

Status CheckTypeRange(TypeKind type, int64_t lo, int64_t hi) {
  if (type == TypeKind::kInt32) return CheckValueRange<int32_t>(lo, hi);
  return Status::OK();
}

}  // namespace

const char* EncodingName(uint8_t encoding) {
  switch (encoding) {
    case kEncPlain:
      return "plain";
    case kEncRle:
      return "rle";
    case kEncBitPack:
      return "bitpack";
    case kEncFor:
      return "for";
    case kEncDict:
      return "dict";
    case kEncDictRle:
      return "dict_rle";
    default:
      return "unknown";
  }
}

int BitWidth(uint64_t v) {
  int w = 0;
  while (v != 0) {
    ++w;
    v >>= 1;
  }
  return w;
}

void BitPack(const uint64_t* vals, uint32_t n, int width, uint64_t* words) {
  for (uint32_t i = 0; i < n; ++i) {
    const uint64_t bit = static_cast<uint64_t>(i) * width;
    const uint64_t word = bit >> 6;
    const unsigned shift = static_cast<unsigned>(bit & 63);
    words[word] |= vals[i] << shift;
    if (shift + static_cast<unsigned>(width) > 64) {
      words[word + 1] |= vals[i] >> (64 - shift);
    }
  }
}

namespace {

/// Unpacks 64 values of width W. They fill exactly W words, so once the
/// loop unrolls every word index and shift is a compile-time constant.
template <int W>
void Unpack64(const uint64_t* in, uint64_t* out) {
  constexpr uint64_t kMask = (uint64_t{1} << W) - 1;
#pragma GCC unroll 64
  for (int i = 0; i < 64; ++i) {
    const int bit = i * W;
    const int shift = bit & 63;
    uint64_t v = in[bit >> 6] >> shift;
    if (shift + W > 64) v |= in[(bit >> 6) + 1] << (64 - shift);
    out[i] = v & kMask;
  }
}

using Unpack64Fn = void (*)(const uint64_t*, uint64_t*);

/// kUnpack64[w] unpacks 64 values of width w, for w in [1, 63].
template <int... W>
constexpr std::array<Unpack64Fn, 64> MakeUnpack64(
    std::integer_sequence<int, W...>) {
  return {nullptr, &Unpack64<W + 1>...};
}
constexpr std::array<Unpack64Fn, 64> kUnpack64 =
    MakeUnpack64(std::make_integer_sequence<int, 63>{});

}  // namespace

void BitUnpackAll(const uint64_t* words, uint32_t n, int width,
                  uint64_t* out) {
  uint32_t i = 0;
  if (width >= 1 && width < 64) {
    // Value 64k starts word k * width, so whole groups of 64 need no
    // per-value index math; only the tail does.
    const Unpack64Fn unpack = kUnpack64[static_cast<size_t>(width)];
    for (; i + 64 <= n; i += 64) {
      unpack(words + static_cast<size_t>(i / 64) * static_cast<size_t>(width),
             out + i);
    }
  }
  for (; i < n; ++i) out[i] = BitUnpackOne(words, i, width);
}

Status ParseIntPayload(const uint8_t* payload, size_t len, uint32_t nrows,
                       TypeKind type, uint8_t encoding, IntBlockView* view) {
  view->encoding = encoding;
  view->nrows = nrows;
  const size_t value_width = type == TypeKind::kInt32 ? 4 : 8;
  switch (encoding) {
    case kEncPlain:
      if (len < nrows * value_width) {
        return Status::IoError("truncated plain integer column block");
      }
      view->plain = payload;
      return Status::OK();
    case kEncRle: {
      if (len < 8) return Status::IoError("truncated RLE block header");
      uint32_t nruns = 0;
      std::memcpy(&nruns, payload, sizeof(nruns));
      if (nruns > nrows) {
        return Status::IoError("RLE run count exceeds block row count");
      }
      if (len < 8 + static_cast<size_t>(nruns) * 12) {
        return Status::IoError("truncated RLE runs");
      }
      view->nruns = nruns;
      view->run_values = reinterpret_cast<const int64_t*>(payload + 8);
      view->run_lengths = reinterpret_cast<const uint32_t*>(
          payload + 8 + static_cast<size_t>(nruns) * 8);
      uint64_t total = 0;
      int64_t lo = 0, hi = 0;
      for (uint32_t r = 0; r < nruns; ++r) {
        if (view->run_lengths[r] == 0) {
          return Status::IoError("empty RLE run");
        }
        total += view->run_lengths[r];
        lo = r == 0 ? view->run_values[r] : std::min(lo, view->run_values[r]);
        hi = r == 0 ? view->run_values[r] : std::max(hi, view->run_values[r]);
      }
      if (total != nrows) {
        return Status::IoError("RLE run lengths disagree with block row count");
      }
      if (nruns > 0) CLY_RETURN_IF_ERROR(CheckTypeRange(type, lo, hi));
      return Status::OK();
    }
    case kEncBitPack:
    case kEncFor: {
      const size_t header = encoding == kEncFor ? 16 : 8;
      if (len < header) return Status::IoError("truncated packed block header");
      if (encoding == kEncFor) {
        std::memcpy(&view->base, payload, sizeof(int64_t));
      }
      const int width = payload[header - 8];
      if (width < 1 || width > 63) {
        return Status::IoError("packed block bit width out of range");
      }
      view->width = width;
      const size_t words = PackedWordCount(nrows, width);
      if (len < header + words * 8) {
        return Status::IoError("truncated packed words in column block");
      }
      view->words = reinterpret_cast<const uint64_t*>(payload + header);
      // The whole decoded range must fit the column type: base + max delta
      // may not overflow int64 nor escape int32 for a 32-bit column. This
      // is what keeps a corrupt FoR base from fabricating wild values.
      const uint64_t max_delta = (uint64_t{1} << width) - 1;
      const int64_t base = view->base;
      if (base > 0 &&
          max_delta >
              static_cast<uint64_t>(std::numeric_limits<int64_t>::max() -
                                    base)) {
        return Status::IoError("FoR delta range overflows int64");
      }
      CLY_RETURN_IF_ERROR(CheckTypeRange(
          type, base, base + static_cast<int64_t>(max_delta)));
      return Status::OK();
    }
    default:
      return Status::IoError("unknown CIF integer column encoding");
  }
}

void DecodeIntView(const IntBlockView& view, TypeKind type,
                   ColumnVector* out) {
  const uint32_t n = view.nrows;
  if (type == TypeKind::kInt32) {
    auto* v = out->mutable_i32();
    v->resize(n);
    switch (view.encoding) {
      case kEncPlain:
        // An empty block leaves both pointers possibly null.
        if (n > 0) std::memcpy(v->data(), view.plain, n * sizeof(int32_t));
        break;
      case kEncRle: {
        uint32_t i = 0;
        for (uint32_t r = 0; r < view.nruns; ++r) {
          const auto val = static_cast<int32_t>(view.run_values[r]);
          std::fill_n(v->data() + i, view.run_lengths[r], val);
          i += view.run_lengths[r];
        }
        break;
      }
      default:
        for (uint32_t i = 0; i < n; ++i) {
          (*v)[i] = static_cast<int32_t>(view.PackedAt(i));
        }
        break;
    }
    return;
  }
  auto* v = out->mutable_i64();
  v->resize(n);
  switch (view.encoding) {
    case kEncPlain:
      if (n > 0) std::memcpy(v->data(), view.plain, n * sizeof(int64_t));
      break;
    case kEncRle: {
      uint32_t i = 0;
      for (uint32_t r = 0; r < view.nruns; ++r) {
        std::fill_n(v->data() + i, view.run_lengths[r], view.run_values[r]);
        i += view.run_lengths[r];
      }
      break;
    }
    default:
      if (view.base == 0 && n > 0) {
        // Straight unpack: the unrolled kernel writes u64 lanes that
        // reinterpret exactly as the non-negative int64 values.
        BitUnpackAll(view.words, n, view.width,
                     reinterpret_cast<uint64_t*>(v->data()));
      } else {
        for (uint32_t i = 0; i < n; ++i) (*v)[i] = view.PackedAt(i);
      }
      break;
  }
}

uint8_t EncodeIntPayload(const ColumnVector& col, ByteWriter* out,
                         IntBlockStats* stats) {
  if (col.type() == TypeKind::kInt32) {
    const auto n = static_cast<uint32_t>(col.i32().size());
    *stats = ComputeStats(col.i32().data(), n);
    return EncodeIntPayloadT(col.i32().data(), n, *stats, out);
  }
  const auto n = static_cast<uint32_t>(col.i64().size());
  *stats = ComputeStats(col.i64().data(), n);
  return EncodeIntPayloadT(col.i64().data(), n, *stats, out);
}

}  // namespace storage
}  // namespace clydesdale
