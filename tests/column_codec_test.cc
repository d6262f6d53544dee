// CIF block-encoding tests: bit-packing kernels, writer-side encoding
// selection, encode/parse/decode round-trips across value distributions, and
// the payload validation that must turn every malformed input into an
// IoError (the asan preset runs this suite — rejection must involve no
// out-of-bounds access).

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "storage/byte_io.h"
#include "storage/column_codec.h"

namespace clydesdale {
namespace storage {
namespace {

/// Deterministic 64-bit generator (xorshift*) so "random" distributions are
/// reproducible across runs and sanitizers.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed | 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1Dull;
  }

 private:
  uint64_t state_;
};

ColumnVector MakeColumn(TypeKind type, const std::vector<int64_t>& vals) {
  ColumnVector col(type);
  for (int64_t v : vals) {
    if (type == TypeKind::kInt32) {
      col.AppendInt32(static_cast<int32_t>(v));
    } else {
      col.AppendInt64(v);
    }
  }
  return col;
}

std::vector<int64_t> ColumnValues(const ColumnVector& col) {
  std::vector<int64_t> out;
  if (col.type() == TypeKind::kInt32) {
    out.assign(col.i32().begin(), col.i32().end());
  } else {
    out.assign(col.i64().begin(), col.i64().end());
  }
  return out;
}

/// Encodes `vals`, re-parses the payload, fully decodes it, and checks the
/// decoded values are identical. Returns the chosen encoding tag.
uint8_t RoundTrip(TypeKind type, const std::vector<int64_t>& vals) {
  const ColumnVector col = MakeColumn(type, vals);
  ByteWriter out;
  IntBlockStats stats;
  const uint8_t tag = EncodeIntPayload(col, &out, &stats);
  EXPECT_EQ(stats.nrows, vals.size());

  IntBlockView view;
  const Status parsed = ParseIntPayload(out.bytes().data(), out.size(),
                                        static_cast<uint32_t>(vals.size()),
                                        type, tag, &view);
  EXPECT_TRUE(parsed.ok()) << parsed.ToString();
  ColumnVector decoded(type);
  DecodeIntView(view, type, &decoded);
  EXPECT_EQ(ColumnValues(decoded), vals) << "tag=" << EncodingName(tag);
  return tag;
}

TEST(BitWidthTest, Basics) {
  EXPECT_EQ(BitWidth(0), 0);
  EXPECT_EQ(BitWidth(1), 1);
  EXPECT_EQ(BitWidth(2), 2);
  EXPECT_EQ(BitWidth(255), 8);
  EXPECT_EQ(BitWidth(256), 9);
  EXPECT_EQ(BitWidth(std::numeric_limits<uint64_t>::max()), 64);
}

TEST(BitPackTest, RoundTripEveryWidth) {
  // Exactly-sized word buffers: the tail value of every width must decode
  // without reading past the allocation (asan enforces it).
  Rng rng(0xC1F3);
  for (int width = 1; width <= 63; ++width) {
    const uint32_t n = 257;  // odd count: tail never lands on a word edge
    const uint64_t mask = (uint64_t{1} << width) - 1;
    std::vector<uint64_t> vals(n);
    for (auto& v : vals) v = rng.Next() & mask;
    vals[0] = 0;
    vals[n - 1] = mask;  // extremes at both ends

    std::vector<uint64_t> words(PackedWordCount(n, width), 0);
    BitPack(vals.data(), n, width, words.data());

    std::vector<uint64_t> all(n);
    BitUnpackAll(words.data(), n, width, all.data());
    for (uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(BitUnpackOne(words.data(), i, width), vals[i])
          << "width=" << width << " i=" << i;
      ASSERT_EQ(all[i], vals[i]) << "width=" << width << " i=" << i;
    }
  }
}

// --- Writer-side selection ---------------------------------------------------

uint8_t ChosenEncoding(TypeKind type, const std::vector<int64_t>& vals) {
  ByteWriter out;
  IntBlockStats stats;
  return EncodeIntPayload(MakeColumn(type, vals), &out, &stats);
}

TEST(EncodingSelectionTest, ConstantBlockPicksRle) {
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt32, std::vector<int64_t>(4096, 7)),
            kEncRle);
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt64, std::vector<int64_t>(4096, -3)),
            kEncRle);
}

TEST(EncodingSelectionTest, LongRunsPickRle) {
  std::vector<int64_t> vals;
  for (int run = 0; run < 8; ++run) {
    vals.insert(vals.end(), 512, run * 1000);
  }
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt64, vals), kEncRle);
}

TEST(EncodingSelectionTest, AlternatingSmallValuesPickBitPack) {
  // Run count equals row count, so RLE loses; values fit one bit.
  std::vector<int64_t> vals(4096);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = i % 2;
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt32, vals), kEncBitPack);
}

TEST(EncodingSelectionTest, NarrowRangeOnLargeBasePicksFor) {
  // Bit-pack would need 31 bits for the absolute values; FoR needs 7 for
  // the deltas.
  Rng rng(7);
  std::vector<int64_t> vals(4096);
  for (auto& v : vals) v = 19920101 + static_cast<int64_t>(rng.Next() % 100);
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt32, vals), kEncFor);
}

TEST(EncodingSelectionTest, NegativeBaseUsesForNotBitPack) {
  Rng rng(11);
  std::vector<int64_t> vals(1024);
  for (auto& v : vals) v = -50 + static_cast<int64_t>(rng.Next() % 100);
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt64, vals), kEncFor);
}

TEST(EncodingSelectionTest, IncompressibleBlockStaysPlain) {
  // Full-range values: packing can't strictly beat plain and negatives rule
  // out bit-pack, so the writer must degrade to the plain byte cost.
  Rng rng(23);
  std::vector<int64_t> w32(1024), w64(1024);
  for (auto& v : w32) v = static_cast<int32_t>(rng.Next());
  for (auto& v : w64) v = static_cast<int64_t>(rng.Next());
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt32, w32), kEncPlain);
  EXPECT_EQ(ChosenEncoding(TypeKind::kInt64, w64), kEncPlain);
}

// --- Round-trip properties ---------------------------------------------------

TEST(IntPayloadRoundTripTest, DistributionsBothTypes) {
  Rng rng(0xD15C0);
  for (const TypeKind type : {TypeKind::kInt32, TypeKind::kInt64}) {
    // Empty block and single row.
    RoundTrip(type, {});
    RoundTrip(type, {42});
    RoundTrip(type, {-1});
    // Constant, long runs, alternating, sorted, random small, random wide.
    RoundTrip(type, std::vector<int64_t>(1000, 123456));
    std::vector<int64_t> runs;
    for (int r = 0; r < 10; ++r) runs.insert(runs.end(), 100, r * 7 - 20);
    RoundTrip(type, runs);
    std::vector<int64_t> alt(1001);
    for (size_t i = 0; i < alt.size(); ++i) alt[i] = i % 3;
    RoundTrip(type, alt);
    std::vector<int64_t> sorted(1000);
    for (size_t i = 0; i < sorted.size(); ++i) {
      sorted[i] = 1000000 + static_cast<int64_t>(i);
    }
    RoundTrip(type, sorted);
    std::vector<int64_t> small(1000), wide(1000);
    for (auto& v : small) v = static_cast<int64_t>(rng.Next() % 50);
    RoundTrip(type, small);
    for (auto& v : wide) {
      v = type == TypeKind::kInt32 ? static_cast<int32_t>(rng.Next())
                                   : static_cast<int64_t>(rng.Next());
    }
    RoundTrip(type, wide);
  }
}

TEST(IntPayloadRoundTripTest, TypeBoundaryValues) {
  RoundTrip(TypeKind::kInt32, {std::numeric_limits<int32_t>::min(),
                               std::numeric_limits<int32_t>::max(), 0, -1, 1});
  RoundTrip(TypeKind::kInt64, {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::max(), 0, -1, 1});
  // Narrow band hugging int32 min: FoR with a negative base must still
  // round-trip exactly.
  std::vector<int64_t> low(256);
  for (size_t i = 0; i < low.size(); ++i) {
    low[i] = std::numeric_limits<int32_t>::min() + static_cast<int64_t>(i % 16);
  }
  EXPECT_EQ(RoundTrip(TypeKind::kInt32, low), kEncFor);
}

TEST(IntPayloadRoundTripTest, RleViewExposesRunStructure) {
  std::vector<int64_t> vals;
  vals.insert(vals.end(), 300, 5);
  vals.insert(vals.end(), 200, -9);
  vals.insert(vals.end(), 500, 5);
  const ColumnVector col = MakeColumn(TypeKind::kInt64, vals);
  ByteWriter out;
  IntBlockStats stats;
  const uint8_t tag = EncodeIntPayload(col, &out, &stats);
  ASSERT_EQ(tag, kEncRle);
  EXPECT_EQ(stats.nruns, 3u);
  EXPECT_EQ(stats.min, -9);
  EXPECT_EQ(stats.max, 5);

  IntBlockView view;
  ASSERT_TRUE(ParseIntPayload(out.bytes().data(), out.size(), 1000,
                              TypeKind::kInt64, tag, &view)
                  .ok());
  ASSERT_EQ(view.nruns, 3u);
  EXPECT_EQ(view.run_values[0], 5);
  EXPECT_EQ(view.run_values[1], -9);
  EXPECT_EQ(view.run_values[2], 5);
  EXPECT_EQ(view.run_lengths[0], 300u);
  EXPECT_EQ(view.run_lengths[1], 200u);
  EXPECT_EQ(view.run_lengths[2], 500u);
}

// --- Payload validation ------------------------------------------------------

Status ParseRaw(const ByteWriter& out, uint32_t nrows, TypeKind type,
                uint8_t tag) {
  IntBlockView view;
  return ParseIntPayload(out.bytes().data(), out.size(), nrows, type, tag,
                         &view);
}

TEST(IntPayloadValidationTest, UnknownEncodingTagIsRejected) {
  ByteWriter out;
  out.PutI64(1);
  for (const uint8_t tag : {kEncDict, kEncDictRle, kEncCount, uint8_t{200}}) {
    const Status s = ParseRaw(out, 1, TypeKind::kInt64, tag);
    ASSERT_FALSE(s.ok()) << "tag=" << int{tag};
    EXPECT_EQ(s.code(), StatusCode::kIoError);
  }
}

TEST(IntPayloadValidationTest, TruncatedPayloadsAreRejected) {
  // Plain lane shorter than nrows, RLE header cut mid-u32, packed words
  // missing the final word.
  ByteWriter plain;
  plain.PutI64(1);
  EXPECT_EQ(ParseRaw(plain, 3, TypeKind::kInt64, kEncPlain).code(),
            StatusCode::kIoError);

  ByteWriter rle;
  rle.PutU32(1);  // no pad, no runs
  EXPECT_EQ(ParseRaw(rle, 1, TypeKind::kInt64, kEncRle).code(),
            StatusCode::kIoError);

  ByteWriter packed;
  packed.PutU8(13);
  for (int p = 0; p < 7; ++p) packed.PutU8(0);
  packed.PutU64(0);  // 64 rows at width 13 need 14 words, not 1
  EXPECT_EQ(ParseRaw(packed, 64, TypeKind::kInt64, kEncBitPack).code(),
            StatusCode::kIoError);
}

TEST(IntPayloadValidationTest, RleRunAccountingIsEnforced) {
  // More runs than rows.
  ByteWriter overcount;
  overcount.PutU32(9);
  overcount.PutU32(0);
  EXPECT_EQ(ParseRaw(overcount, 4, TypeKind::kInt64, kEncRle).code(),
            StatusCode::kIoError);

  // A zero-length run.
  ByteWriter zero;
  zero.PutU32(1);
  zero.PutU32(0);
  zero.PutI64(7);
  zero.PutU32(0);
  EXPECT_EQ(ParseRaw(zero, 1, TypeKind::kInt64, kEncRle).code(),
            StatusCode::kIoError);

  // Lengths summing past the block's row count.
  ByteWriter oversum;
  oversum.PutU32(2);
  oversum.PutU32(0);
  oversum.PutI64(7);
  oversum.PutI64(8);
  oversum.PutU32(600);
  oversum.PutU32(600);
  EXPECT_EQ(ParseRaw(oversum, 1000, TypeKind::kInt64, kEncRle).code(),
            StatusCode::kIoError);
}

TEST(IntPayloadValidationTest, RleValueOutsideInt32IsRejected) {
  ByteWriter out;
  out.PutU32(1);
  out.PutU32(0);
  out.PutI64(int64_t{1} << 40);
  out.PutU32(8);
  EXPECT_EQ(ParseRaw(out, 8, TypeKind::kInt32, kEncRle).code(),
            StatusCode::kIoError);
  EXPECT_TRUE(ParseRaw(out, 8, TypeKind::kInt64, kEncRle).ok());
}

TEST(IntPayloadValidationTest, PackedWidthOutOfRangeIsRejected) {
  for (const int width : {0, 64, 255}) {
    ByteWriter out;
    out.PutU8(static_cast<uint8_t>(width));
    for (int p = 0; p < 7; ++p) out.PutU8(0);
    out.PutU64(0);
    EXPECT_EQ(ParseRaw(out, 1, TypeKind::kInt64, kEncBitPack).code(),
              StatusCode::kIoError)
        << "width=" << width;
  }
}

TEST(IntPayloadValidationTest, ForDeltaRangeEscapingTypeIsRejected) {
  // base + 2^width - 1 would exceed int32 max: a corrupt FoR block must
  // never materialize an out-of-range value into an int32 column.
  ByteWriter out;
  out.PutI64(std::numeric_limits<int32_t>::max() - 100);
  out.PutU8(40);
  for (int p = 0; p < 7; ++p) out.PutU8(0);
  out.PutU64(0);
  EXPECT_EQ(ParseRaw(out, 1, TypeKind::kInt32, kEncFor).code(),
            StatusCode::kIoError);
  // The identical payload is fine for an int64 column.
  EXPECT_TRUE(ParseRaw(out, 1, TypeKind::kInt64, kEncFor).ok());
}

TEST(IntPayloadValidationTest, ForBaseOverflowingInt64IsRejected) {
  ByteWriter out;
  out.PutI64(std::numeric_limits<int64_t>::max() - 2);
  out.PutU8(8);
  for (int p = 0; p < 7; ++p) out.PutU8(0);
  out.PutU64(0);
  EXPECT_EQ(ParseRaw(out, 1, TypeKind::kInt64, kEncFor).code(),
            StatusCode::kIoError);
}

TEST(EncodingNameTest, CoversAllTags) {
  EXPECT_STREQ(EncodingName(kEncPlain), "plain");
  EXPECT_STREQ(EncodingName(kEncRle), "rle");
  EXPECT_STREQ(EncodingName(kEncBitPack), "bitpack");
  EXPECT_STREQ(EncodingName(kEncFor), "for");
  EXPECT_STREQ(EncodingName(kEncDict), "dict");
  EXPECT_STREQ(EncodingName(kEncDictRle), "dict_rle");
  EXPECT_STREQ(EncodingName(kEncCount), "unknown");
}

}  // namespace
}  // namespace storage
}  // namespace clydesdale
