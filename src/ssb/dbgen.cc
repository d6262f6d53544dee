#include "ssb/dbgen.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"

namespace clydesdale {
namespace ssb {

namespace {

constexpr uint32_t kTableCustomer = 1;
constexpr uint32_t kTableSupplier = 2;
constexpr uint32_t kTablePart = 3;
constexpr uint32_t kTableOrder = 5;

const char* const kMonthNames[12] = {"January", "February", "March",
                                     "April",   "May",      "June",
                                     "July",    "August",   "September",
                                     "October", "November", "December"};
const char* const kMonthAbbrev[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                      "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
const char* const kWeekdays[7] = {"Monday", "Tuesday",  "Wednesday", "Thursday",
                                  "Friday", "Saturday", "Sunday"};
const char* const kPriorities[5] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                    "4-NOT SPECI", "5-LOW"};
const char* const kShipModes[7] = {"REG AIR", "AIR",  "RAIL", "SHIP",
                                   "TRUCK",   "MAIL", "FOB"};
const char* const kSegments[5] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                  "MACHINERY", "HOUSEHOLD"};
const char* const kColors[10] = {"almond", "azure",  "beige", "blush",
                                 "chiffon", "coral", "khaki", "linen",
                                 "mint",    "navy"};
const char* const kTypes[6] = {"STANDARD POLISHED TIN", "SMALL PLATED COPPER",
                               "MEDIUM BURNISHED BRASS", "ECONOMY ANODIZED STEEL",
                               "LARGE BRUSHED NICKEL", "PROMO WROUGHT PEWTER"};
const char* const kContainers[8] = {"SM CASE", "SM BOX", "MED BAG", "MED BOX",
                                    "LG CASE", "LG BOX", "WRAP JAR", "JUMBO PKG"};

// LineorderSchema() column positions.
enum LineorderColumn : int {
  kLoOrderkey,
  kLoLinenumber,
  kLoCustkey,
  kLoPartkey,
  kLoSuppkey,
  kLoOrderdate,
  kLoOrderpriority,
  kLoShippriority,
  kLoQuantity,
  kLoExtendedprice,
  kLoOrdtotalprice,
  kLoDiscount,
  kLoRevenue,
  kLoSupplycost,
  kLoTax,
  kLoCommitdate,
  kLoShipmode,
};

/// An order's line count: the first draw of its RNG, so the row index can
/// be built without drawing anything else.
int LinesInOrder(Random* rng) { return static_cast<int>(rng->Uniform(1, 7)); }

bool IsLeapYear(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

std::string PhoneFor(Random* rng, int nation_index) {
  // "NN-NNN-NNN-NNNN" with the country code tied to the nation.
  return StrCat(10 + nation_index, "-", rng->Uniform(100, 999), "-",
                rng->Uniform(100, 999), "-", rng->Uniform(1000, 9999));
}

std::string SeasonFor(int month) {
  if (month == 12 || month == 1) return "Christmas";
  if (month >= 2 && month <= 4) return "Winter";
  if (month >= 5 && month <= 7) return "Summer";
  if (month >= 8 && month <= 9) return "Fall";
  return "Holiday";
}

}  // namespace

SsbGenerator::SsbGenerator(double scale_factor, uint64_t seed)
    : sf_(scale_factor), seed_(seed), card_(CardinalitiesFor(scale_factor)) {
  CLY_CHECK(scale_factor > 0);
  // Build the 1992-1998 calendar (2,556 days; 1992 and 1996 are leap years).
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  calendar_.reserve(card_.dates);
  int16_t day_of_year = 1;
  int8_t day_of_week = 2;  // 1992-01-01 was a Wednesday.
  for (int year = 1992; year <= 1998; ++year) {
    day_of_year = 1;
    for (int month = 1; month <= 12; ++month) {
      int days = kDays[month - 1];
      if (month == 2 && IsLeapYear(year)) days = 29;
      for (int day = 1; day <= days; ++day) {
        CalendarDay cd;
        cd.year = static_cast<int16_t>(year);
        cd.month = static_cast<int8_t>(month);
        cd.day = static_cast<int8_t>(day);
        cd.datekey = year * 10000 + month * 100 + day;
        cd.day_of_year = day_of_year++;
        cd.day_of_week = day_of_week;
        day_of_week = static_cast<int8_t>((day_of_week + 1) % 7);
        calendar_.push_back(cd);
      }
    }
  }
  CLY_CHECK(calendar_.size() == card_.dates);
}

Random SsbGenerator::RngFor(uint32_t table, int64_t index) const {
  return Random(HashCombine(seed_, HashCombine(table, Mix64(
                                       static_cast<uint64_t>(index)))));
}

int32_t SsbGenerator::DateKeyForIndex(int64_t day_index) const {
  return calendar_[static_cast<size_t>(day_index)].datekey;
}

Row SsbGenerator::CustomerRow(int64_t custkey) const {
  Random rng = RngFor(kTableCustomer, custkey);
  const int nation = static_cast<int>(rng.Uniform(0, kNumNations - 1));
  const int city = static_cast<int>(rng.Uniform(0, 9));
  Row row;
  row.Reserve(8);
  row.Append(Value(static_cast<int32_t>(custkey)));
  row.Append(Value(StrCat("Customer#", Pad(StrCat(custkey), -9))));
  row.Append(Value(StrCat("Addr", rng.Uniform(100000, 999999), " St ",
                          rng.Uniform(1, 99))));
  row.Append(Value(CityName(nation, city)));
  row.Append(Value(NationName(nation)));
  row.Append(Value(RegionOfNation(nation)));
  row.Append(Value(PhoneFor(&rng, nation)));
  row.Append(Value(kSegments[rng.Uniform(0, 4)]));
  return row;
}

Row SsbGenerator::SupplierRow(int64_t suppkey) const {
  Random rng = RngFor(kTableSupplier, suppkey);
  const int nation = static_cast<int>(rng.Uniform(0, kNumNations - 1));
  const int city = static_cast<int>(rng.Uniform(0, 9));
  Row row;
  row.Reserve(7);
  row.Append(Value(static_cast<int32_t>(suppkey)));
  row.Append(Value(StrCat("Supplier#", Pad(StrCat(suppkey), -9))));
  row.Append(Value(StrCat("Addr", rng.Uniform(100000, 999999), " Ave ",
                          rng.Uniform(1, 99))));
  row.Append(Value(CityName(nation, city)));
  row.Append(Value(NationName(nation)));
  row.Append(Value(RegionOfNation(nation)));
  row.Append(Value(PhoneFor(&rng, nation)));
  return row;
}

Row SsbGenerator::PartRow(int64_t partkey) const {
  Random rng = RngFor(kTablePart, partkey);
  const int mfgr = static_cast<int>(rng.Uniform(1, 5));
  const int category = static_cast<int>(rng.Uniform(1, 5));
  const int brand = static_cast<int>(rng.Uniform(1, 40));
  Row row;
  row.Reserve(9);
  row.Append(Value(static_cast<int32_t>(partkey)));
  row.Append(Value(StrCat(kColors[rng.Uniform(0, 9)], " ",
                          kColors[rng.Uniform(0, 9)])));
  row.Append(Value(StrCat("MFGR#", mfgr)));
  row.Append(Value(StrCat("MFGR#", mfgr, category)));
  row.Append(Value(StrCat("MFGR#", mfgr, category, brand)));
  row.Append(Value(kColors[rng.Uniform(0, 9)]));
  row.Append(Value(kTypes[rng.Uniform(0, 5)]));
  row.Append(Value(static_cast<int32_t>(rng.Uniform(1, 50))));
  row.Append(Value(kContainers[rng.Uniform(0, 7)]));
  return row;
}

Row SsbGenerator::DateRow(int64_t day_index) const {
  const CalendarDay& cd = calendar_[static_cast<size_t>(day_index)];
  Row row;
  row.Reserve(17);
  row.Append(Value(cd.datekey));
  row.Append(Value(StrCat(kMonthNames[cd.month - 1], " ", int{cd.day}, ", ",
                          int{cd.year})));
  row.Append(Value(kWeekdays[cd.day_of_week]));
  row.Append(Value(kMonthNames[cd.month - 1]));
  row.Append(Value(static_cast<int32_t>(cd.year)));
  row.Append(Value(static_cast<int32_t>(cd.year * 100 + cd.month)));
  row.Append(Value(StrCat(kMonthAbbrev[cd.month - 1], int{cd.year})));
  row.Append(Value(static_cast<int32_t>(cd.day_of_week + 1)));
  row.Append(Value(static_cast<int32_t>(cd.day)));
  row.Append(Value(static_cast<int32_t>(cd.day_of_year)));
  row.Append(Value(static_cast<int32_t>(cd.month)));
  row.Append(Value(static_cast<int32_t>((cd.day_of_year - 1) / 7 + 1)));
  row.Append(Value(SeasonFor(cd.month)));
  row.Append(Value(static_cast<int32_t>(cd.day_of_week == 6 ? 1 : 0)));
  row.Append(Value(static_cast<int32_t>(
      (day_index + 1 < static_cast<int64_t>(calendar_.size()) &&
       calendar_[static_cast<size_t>(day_index + 1)].month != cd.month) ||
              day_index + 1 == static_cast<int64_t>(calendar_.size())
          ? 1
          : 0)));
  row.Append(Value(static_cast<int32_t>(
      (cd.month == 12 && cd.day == 25) || (cd.month == 1 && cd.day == 1) ? 1
                                                                         : 0)));
  row.Append(Value(static_cast<int32_t>(cd.day_of_week < 5 ? 1 : 0)));
  return row;
}

SsbGenerator::OrderDraws SsbGenerator::DrawOrder(uint64_t orderkey,
                                                 Random* rng) const {
  // The paper's orderdate range follows TPC-H: orders span 1992-01-01 to
  // 1998-08-02 (commitdate may run past it).
  static constexpr int64_t kOrderableDays = 2406;

  *rng = RngFor(kTableOrder, static_cast<int64_t>(orderkey));
  OrderDraws order;
  order.lines = LinesInOrder(rng);
  order.custkey = static_cast<int32_t>(
      rng->Uniform(1, static_cast<int64_t>(card_.customers)));
  order.day = rng->Uniform(0, kOrderableDays - 1);
  order.orderdate = DateKeyForIndex(order.day);
  order.priority = kPriorities[rng->Uniform(0, 4)];
  // Order total is drawn up front (dbgen derives it from the lines; a draw
  // keeps the stream single-pass and it is never aggregated in SSB).
  order.ordtotalprice = static_cast<int32_t>(rng->Uniform(20000, 40000000));
  return order;
}

void SsbGenerator::EmitLine(uint64_t orderkey, const OrderDraws& order,
                            int linenumber, Random* rng,
                            const LineorderSink& out, size_t at) const {
  const int32_t partkey = static_cast<int32_t>(
      rng->Uniform(1, static_cast<int64_t>(card_.parts)));
  const int32_t suppkey = static_cast<int32_t>(
      rng->Uniform(1, static_cast<int64_t>(card_.suppliers)));
  const int32_t quantity = static_cast<int32_t>(rng->Uniform(1, 50));
  const int32_t unit_price = static_cast<int32_t>(rng->Uniform(900, 110000));
  int64_t extended = static_cast<int64_t>(quantity) * unit_price;
  extended = std::min<int64_t>(extended, 5545050);  // dbgen's MAX_LO_PRICE cap
  const int32_t discount = static_cast<int32_t>(rng->Uniform(0, 10));
  const int32_t revenue =
      static_cast<int32_t>(extended * (100 - discount) / 100);
  const int32_t supplycost = static_cast<int32_t>(rng->Uniform(100, 60000));
  const int32_t tax = static_cast<int32_t>(rng->Uniform(0, 8));
  const int64_t commit_day = std::min<int64_t>(
      order.day + rng->Uniform(30, 90), num_dates() - 1);

  // Order keys fit int32: LoadSsb rejects scales with more orders.
  out.i32[kLoOrderkey][at] = static_cast<int32_t>(orderkey);
  out.i32[kLoLinenumber][at] = linenumber;
  out.i32[kLoCustkey][at] = order.custkey;
  out.i32[kLoPartkey][at] = partkey;
  out.i32[kLoSuppkey][at] = suppkey;
  out.i32[kLoOrderdate][at] = order.orderdate;
  out.str[kLoOrderpriority][at] = order.priority;
  out.i32[kLoShippriority][at] = 0;
  out.i32[kLoQuantity][at] = quantity;
  out.i32[kLoExtendedprice][at] = static_cast<int32_t>(extended);
  out.i32[kLoOrdtotalprice][at] = order.ordtotalprice;
  out.i32[kLoDiscount][at] = discount;
  out.i32[kLoRevenue][at] = revenue;
  out.i32[kLoSupplycost][at] = supplycost;
  out.i32[kLoTax][at] = tax;
  out.i32[kLoCommitdate][at] = DateKeyForIndex(commit_day);
  out.str[kLoShipmode][at] = kShipModes[rng->Uniform(0, 6)];
}

bool SsbGenerator::LineorderStream::Next(Row* out) {
  if (line_ >= order_.lines) {
    if (next_order_ > gen_->card_.orders) return false;
    order_ = gen_->DrawOrder(next_order_++, &line_rng_);
    line_ = 0;
  }
  int32_t ints[17] = {};
  std::string_view strs[17];
  LineorderSink sink;
  for (int c = 0; c < 17; ++c) {
    sink.i32[c] = &ints[c];
    sink.str[c] = &strs[c];
  }
  gen_->EmitLine(next_order_ - 1, order_, ++line_, &line_rng_, sink, 0);

  const SchemaPtr schema = LineorderSchema();
  out->Clear();
  out->Reserve(17);
  for (int c = 0; c < 17; ++c) {
    out->Append(schema->field(c).type == TypeKind::kString
                    ? Value(std::string(strs[c]))
                    : Value(ints[c]));
  }
  return true;
}

SsbGenerator::LineorderStream SsbGenerator::Lineorders() const {
  return LineorderStream(this);
}

SsbGenerator::LineorderIndex::LineorderIndex(const SsbGenerator* gen)
    : gen_(gen), order_first_row_(gen->card_.orders + 1) {
  uint64_t row = 0;
  for (uint64_t o = 0; o < gen->card_.orders; ++o) {
    order_first_row_[o] = row;
    Random rng = gen->RngFor(kTableOrder, static_cast<int64_t>(o + 1));
    row += static_cast<uint64_t>(LinesInOrder(&rng));
  }
  order_first_row_.back() = row;
}

void SsbGenerator::LineorderIndex::Fill(uint64_t first_row, uint64_t n,
                                        const LineorderSink& out,
                                        size_t at) const {
  CLY_DCHECK(first_row + n <= num_rows());
  if (n == 0) return;
  // Index of the order holding first_row (orderkey = index + 1).
  uint64_t o = static_cast<uint64_t>(
      std::upper_bound(order_first_row_.begin(), order_first_row_.end(),
                       first_row) -
      order_first_row_.begin() - 1);
  int skip = static_cast<int>(first_row - order_first_row_[o]);
  Random rng(0);
  const size_t end = at + static_cast<size_t>(n);
  for (; at < end; ++o) {
    const OrderDraws order = gen_->DrawOrder(o + 1, &rng);
    for (int line = 1; line <= order.lines && at < end; ++line) {
      // Lines before first_row are drawn to advance the RNG; they land on
      // position `at`, which the first wanted row then overwrites.
      gen_->EmitLine(o + 1, order, line, &rng, out, at);
      if (skip > 0) {
        --skip;
      } else {
        ++at;
      }
    }
  }
}

}  // namespace ssb
}  // namespace clydesdale
