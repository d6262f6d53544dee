#ifndef CLYDESDALE_SSB_DBGEN_H_
#define CLYDESDALE_SSB_DBGEN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "schema/row.h"
#include "ssb/ssb_schema.h"

namespace clydesdale {
namespace ssb {

/// Deterministic SSB data generator (the stand-in for the benchmark's dbgen).
/// Rows are a function of (seed, table, index): two generators with the same
/// seed and scale produce identical data, and dimension keys referenced by
/// lineorder always exist.
class SsbGenerator {
 private:
  /// The draws an order shares with its lines; the order's RNG is left
  /// positioned at its first line.
  struct OrderDraws {
    int lines = 0;
    int32_t custkey = 0;
    int32_t orderdate = 0;
    int64_t day = 0;
    int32_t ordtotalprice = 0;
    std::string_view priority;
  };

 public:
  explicit SsbGenerator(double scale_factor, uint64_t seed = 19920101);

  double scale_factor() const { return sf_; }
  const SsbCardinalities& cardinalities() const { return card_; }

  /// Dimension rows by key (1-based, up to the table's cardinality).
  Row CustomerRow(int64_t custkey) const;
  Row SupplierRow(int64_t suppkey) const;
  Row PartRow(int64_t partkey) const;
  /// Date rows by day index (0-based, 0 = 1992-01-01).
  Row DateRow(int64_t day_index) const;

  /// Typed destinations for lineorder rows, indexed like
  /// LineorderSchema(): integer column c writes to i32[c], string column c
  /// to str[c] (views into static tables, so no string is allocated); the
  /// other entry is null. Each array needs room for the rows written.
  struct LineorderSink {
    int32_t* i32[17] = {};
    std::string_view* str[17] = {};
  };

  /// Sequential lineorder stream; one instance per scan.
  class LineorderStream {
   public:
    /// Returns false when all orders are exhausted.
    bool Next(Row* out);

   private:
    friend class SsbGenerator;
    explicit LineorderStream(const SsbGenerator* gen) : gen_(gen) {}

    const SsbGenerator* gen_;
    uint64_t next_order_ = 1;
    int line_ = 0;
    OrderDraws order_;
    Random line_rng_{0};
  };

  /// Stream over all orders.
  LineorderStream Lineorders() const;

  /// Row-addressable lineorder generation: row r is the r-th row that
  /// Lineorders() emits. Building the index draws only each order's line
  /// count (the first draw of its RNG); Fill is const, so disjoint row
  /// ranges may be filled from different threads.
  class LineorderIndex {
   public:
    explicit LineorderIndex(const SsbGenerator* gen);

    uint64_t num_rows() const { return order_first_row_.back(); }
    /// Writes rows [first_row, first_row + n) to positions
    /// [at, at + n) of `out`'s arrays.
    void Fill(uint64_t first_row, uint64_t n, const LineorderSink& out,
              size_t at) const;

   private:
    const SsbGenerator* gen_;
    /// [o] is the first row of order o + 1; back() is the row count.
    std::vector<uint64_t> order_first_row_;
  };

  /// Total days in the date dimension.
  int64_t num_dates() const { return static_cast<int64_t>(card_.dates); }

  /// datekey (yyyymmdd) for a 0-based day index and back.
  int32_t DateKeyForIndex(int64_t day_index) const;

 private:
  Random RngFor(uint32_t table, int64_t index) const;
  /// Seeds `rng` for the order and draws its header.
  OrderDraws DrawOrder(uint64_t orderkey, Random* rng) const;
  /// Draws one line of `order` and writes it to position `at` of `out`.
  /// The one per-line routine behind both Next() and LineorderIndex::Fill.
  void EmitLine(uint64_t orderkey, const OrderDraws& order, int linenumber,
                Random* rng, const LineorderSink& out, size_t at) const;

  double sf_;
  uint64_t seed_;
  SsbCardinalities card_;
  /// Day index -> (year, month, day, yyyymmdd) precomputed calendar.
  struct CalendarDay {
    int16_t year;
    int8_t month;
    int8_t day;
    int32_t datekey;
    int16_t day_of_year;
    int8_t day_of_week;  // 0 = Monday (1992-01-01 was a Wednesday = 2)
  };
  std::vector<CalendarDay> calendar_;
};

}  // namespace ssb
}  // namespace clydesdale

#endif  // CLYDESDALE_SSB_DBGEN_H_
