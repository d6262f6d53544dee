#ifndef CLYDESDALE_STORAGE_COLUMN_CODEC_H_
#define CLYDESDALE_STORAGE_COLUMN_CODEC_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "schema/row_batch.h"
#include "storage/byte_io.h"

namespace clydesdale {
namespace storage {

// --- CIF per-block encodings -------------------------------------------------
// A CIF column block records one encoding tag in its footer; the payload
// layout depends on the tag. Integer payloads keep 8-byte alignment of the
// packed-word / value lanes (the block header is 8 bytes, so payload offsets
// below are relative to an 8-aligned base):
//
//   kEncPlain    raw little-endian value array; plain strings are
//                [u8 sub-format 0][nrows x u32 end offset][bytes]
//   kEncRle      [u32 nruns][u32 pad][nruns x i64 value][nruns x u32 length]
//   kEncBitPack  [u8 width][7 pad][ceil(n*width/64) x u64 words]
//                values are non-negative, LSB-first within each word
//   kEncFor      [i64 base][u8 width][7 pad][words]  (frame of reference:
//                value = base + packed delta)
//   kEncDict     [u8 sub-format 1][u16 dict_size][entries: u8 len + bytes]
//                [nrows x u8 code]
//   kEncDictRle  [u16 dict_size][entries: u8 len + bytes]
//                [u32 nruns][nruns x u8 code][nruns x u32 length]
//
// The writer picks the smallest estimated payload per block, and only ever
// prefers an encoding that is strictly smaller than plain, so pathological
// data degrades to exactly the plain byte cost.
constexpr uint8_t kEncPlain = 0;
constexpr uint8_t kEncRle = 1;
constexpr uint8_t kEncBitPack = 2;
constexpr uint8_t kEncFor = 3;
constexpr uint8_t kEncDict = 4;
constexpr uint8_t kEncDictRle = 5;
constexpr uint8_t kEncCount = 6;

/// Human-readable tag name ("plain", "rle", ...) for reports and benches.
const char* EncodingName(uint8_t encoding);

// --- Bit-packing kernels -----------------------------------------------------

/// Bits needed to represent `v` (0 -> 0). Widths are clamped to [1, 63] by
/// the writer: width 0 means a constant block, which RLE always wins.
int BitWidth(uint64_t v);

/// Number of u64 words holding `n` values of `width` bits.
inline size_t PackedWordCount(uint64_t n, int width) {
  return static_cast<size_t>((n * static_cast<uint64_t>(width) + 63) / 64);
}

/// Packs n values (each < 2^width) LSB-first into zero-initialized words.
void BitPack(const uint64_t* vals, uint32_t n, int width, uint64_t* words);

/// Extracts value i from packed words. Branchless: a value spans at most
/// two words, and both lanes are always read through a 128-bit shift.
inline uint64_t BitUnpackOne(const uint64_t* words, uint64_t i, int width) {
  const uint64_t bit = i * static_cast<uint64_t>(width);
  const uint64_t word = bit >> 6;
  const unsigned shift = static_cast<unsigned>(bit & 63);
  const uint64_t mask =
      width == 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
  uint64_t v = words[word] >> shift;
  // Pull in the spill bits from the next word only when the value actually
  // straddles it — a same-word value at the end of the array must not read
  // one word past the allocation.
  if (shift + static_cast<unsigned>(width) > 64) {
    v |= words[word + 1] << (64 - shift);
  }
  return v & mask;
}

/// Unpacks all n values: groups of 64 through a kernel specialized for the
/// width (the decode hot path), then the tail value by value.
void BitUnpackAll(const uint64_t* words, uint32_t n, int width, uint64_t* out);

// --- Integer block views -----------------------------------------------------

/// A validated, in-place view of one encoded integer payload. Only the
/// members of the active encoding are meaningful. All pointers borrow from
/// the block arena passed to ParseIntPayload.
struct IntBlockView {
  uint8_t encoding = kEncPlain;
  uint32_t nrows = 0;
  // kEncPlain: the raw value array (width per the column type).
  const uint8_t* plain = nullptr;
  // kEncRle.
  uint32_t nruns = 0;
  const int64_t* run_values = nullptr;
  const uint32_t* run_lengths = nullptr;
  // kEncBitPack / kEncFor.
  const uint64_t* words = nullptr;
  int width = 0;
  int64_t base = 0;  // 0 for kEncBitPack

  int64_t PackedAt(uint64_t i) const {
    return base + static_cast<int64_t>(BitUnpackOne(words, i, width));
  }
};

/// Validates an encoded integer payload for in-place access: framing
/// lengths, run-length totals, packed-word counts, and the decoded value
/// range against the column type (so a corrupt FoR base/delta can never
/// materialize an out-of-range int32). Any violation is an IoError.
Status ParseIntPayload(const uint8_t* payload, size_t len, uint32_t nrows,
                       TypeKind type, uint8_t encoding, IntBlockView* view);

/// Fully decodes a validated view into `out` (values in block order).
/// Works for kEncPlain too, so readers have one entry point.
void DecodeIntView(const IntBlockView& view, TypeKind type, ColumnVector* out);

// --- Writer-side encoding selection ------------------------------------------

/// One-pass stats the writer derives per integer block.
struct IntBlockStats {
  uint32_t nrows = 0;
  uint32_t nruns = 0;
  int64_t min = 0;
  int64_t max = 0;
};

/// Appends the chosen encoding's payload for an integer column (kInt32 or
/// kInt64) and returns its tag. `stats` receives the min/max/nruns pass the
/// choice was made from (the caller reuses min/max for the zone map).
uint8_t EncodeIntPayload(const ColumnVector& col, ByteWriter* out,
                         IntBlockStats* stats);

}  // namespace storage
}  // namespace clydesdale

#endif  // CLYDESDALE_STORAGE_COLUMN_CODEC_H_
