#include "serving_stream.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/strings.h"
#include "core/dim_table_cache.h"
#include "ssb/queries.h"
#include "ssb/ssb_schema.h"

namespace perfbench {

using clydesdale::Predicate;
using clydesdale::StrCat;
using clydesdale::Value;
using clydesdale::core::StarQuerySpec;

namespace {

/// Each query takes one zipfian rank over its template's variants; the
/// rank's mixed-radix digits pick the constants, the first constant
/// varying fastest. With this skew a few hundred queries hold more
/// distinct ones than the result cache's 64 entries, while popular
/// variants repeat and neighbouring ranks share dimension filters.
constexpr double kZipfExponent = 1.3;
constexpr int kRanks = 100000;
/// Each template's ranks come from a golden-ratio (Weyl) sequence started
/// at a seeded offset, not from independent draws: the ranks still follow
/// the zipfian distribution, but every seed's stream matches it closely,
/// so the shares of repeats and cache hits vary little between seeds.
constexpr double kGoldenRatioFraction = 0.6180339887498949;

constexpr const char* kRegions[] = {"AMERICA", "ASIA", "EUROPE", "AFRICA",
                                    "MIDDLE EAST"};
constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                   "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};

Value S(const std::string& s) { return Value(s); }
Value I(int32_t v) { return Value(v); }

void SetDimPredicate(StarQuerySpec* q, const std::string& dimension,
                     Predicate::Ptr predicate) {
  for (auto& join : q->dims) {
    if (join.dimension == dimension) {
      join.predicate = std::move(predicate);
      return;
    }
  }
  CLY_CHECK(false) << q->id << " has no " << dimension << " join";
}

/// Fact predicate of flight 1: lo_discount within one of `discount`, and a
/// lo_quantity range.
Predicate::Ptr FlightOneFact(int discount, Predicate::Ptr quantity) {
  return Predicate::And(
      {Predicate::Between("lo_discount", I(discount - 1), I(discount + 1)),
       std::move(quantity)});
}

std::string Category(int index) {  // index in [0, 25)
  return StrCat("MFGR#", 1 + index / 5, 1 + index % 5);
}

}  // namespace

QueryStream::QueryStream(uint64_t seed) : rng_(seed) {
  for (size_t t = 0; t < clydesdale::ssb::AllQueries().size(); ++t) {
    position_.push_back(rng_.NextDouble());
  }
  double total = 0;
  for (int k = 0; k < kRanks; ++k) {
    total += std::pow(k + 1.0, -kZipfExponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int QueryStream::Digit(int n) {
  const int digit = static_cast<int>(rank_ % static_cast<uint64_t>(n));
  rank_ /= static_cast<uint64_t>(n);
  return digit;
}

StreamQuery QueryStream::Draw() {
  static const std::vector<StarQuerySpec> templates =
      clydesdale::ssb::AllQueries();
  // Templates come in rounds, each a shuffle of all 13, so that every seed
  // runs the same mix of query shapes and only the constants differ.
  if (round_.empty()) {
    for (size_t t = 0; t < templates.size(); ++t) round_.push_back(t);
    for (size_t t = round_.size() - 1; t > 0; --t) {
      std::swap(round_[t], round_[static_cast<size_t>(
                               rng_.Uniform(0, static_cast<int64_t>(t)))]);
    }
  }
  const size_t t = round_.back();
  round_.pop_back();
  StarQuerySpec q = templates[t];
  double& u = position_[t];
  u = std::fmod(u + kGoldenRatioFraction, 1.0);
  rank_ = static_cast<uint64_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  std::string key = q.id;
  const auto note = [&key](const auto& constant) {
    key += StrCat("|", constant);
  };
  const std::string& id = q.id;
  if (id == "Q1.1") {
    const int year = 1993 + Digit(5), discount = 2 + Digit(8);
    note(year), note(discount);
    q.fact_predicate =
        FlightOneFact(discount, Predicate::Lt("lo_quantity", I(25)));
    SetDimPredicate(&q, "date", Predicate::Eq("d_year", I(year)));
  } else if (id == "Q1.2" || id == "Q1.3") {
    const int year = 1992 + Digit(7), discount = 2 + Digit(8);
    const int period = id == "Q1.2" ? 1 + Digit(12) : 1 + Digit(53);
    note(year), note(period), note(discount);
    q.fact_predicate = FlightOneFact(
        discount, Predicate::Between("lo_quantity", I(26), I(35)));
    SetDimPredicate(
        &q, "date",
        id == "Q1.2"
            ? Predicate::Eq("d_yearmonthnum", I(year * 100 + period))
            : Predicate::And({Predicate::Eq("d_weeknuminyear", I(period)),
                              Predicate::Eq("d_year", I(year))}));
  } else if (id == "Q2.1" || id == "Q2.2" || id == "Q2.3") {
    const int category = Digit(25);
    const std::string region = kRegions[Digit(5)];
    note(category), note(region);
    Predicate::Ptr part;
    if (id == "Q2.1") {
      part = Predicate::Eq("p_category", S(Category(category)));
    } else if (id == "Q2.2") {
      const int first = 10 + Digit(24);  // two-digit brands 10..40
      note(first);
      part = Predicate::Between("p_brand1",
                                S(StrCat(Category(category), first)),
                                S(StrCat(Category(category), first + 7)));
    } else {
      const int brand = 1 + Digit(40);
      note(brand);
      part = Predicate::Eq("p_brand1", S(StrCat(Category(category), brand)));
    }
    SetDimPredicate(&q, "part", std::move(part));
    SetDimPredicate(&q, "supplier", Predicate::Eq("s_region", S(region)));
  } else if (id == "Q3.1") {
    const std::string region = kRegions[Digit(5)];
    note(region);
    SetDimPredicate(&q, "customer", Predicate::Eq("c_region", S(region)));
    SetDimPredicate(&q, "supplier", Predicate::Eq("s_region", S(region)));
  } else if (id == "Q3.2") {
    const std::string nation = clydesdale::ssb::NationName(Digit(25));
    note(nation);
    SetDimPredicate(&q, "customer", Predicate::Eq("c_nation", S(nation)));
    SetDimPredicate(&q, "supplier", Predicate::Eq("s_nation", S(nation)));
  } else if (id == "Q3.3" || id == "Q3.4") {
    const int nation = Digit(25), first = Digit(10);
    const int second = (first + 1 + Digit(9)) % 10;  // a different city
    note(nation), note(first), note(second);
    const std::vector<Value> cities = {
        S(clydesdale::ssb::CityName(nation, first)),
        S(clydesdale::ssb::CityName(nation, second))};
    SetDimPredicate(&q, "customer", Predicate::In("c_city", cities));
    SetDimPredicate(&q, "supplier", Predicate::In("s_city", cities));
    if (id == "Q3.4") {
      const std::string month =
          StrCat(kMonths[Digit(12)], 1992 + Digit(7));
      note(month);
      SetDimPredicate(&q, "date", Predicate::Eq("d_yearmonth", S(month)));
    }
  } else {  // flight 4
    const std::string region = kRegions[Digit(5)];
    note(region);
    SetDimPredicate(&q, "customer", Predicate::Eq("c_region", S(region)));
    if (id != "Q4.3") {
      const int mfgr = 1 + Digit(4);
      note(mfgr);
      SetDimPredicate(&q, "part",
                      Predicate::In("p_mfgr", {S(StrCat("MFGR#", mfgr)),
                                               S(StrCat("MFGR#", mfgr + 1))}));
    }
    if (id == "Q4.1") {
      SetDimPredicate(&q, "supplier", Predicate::Eq("s_region", S(region)));
    } else {
      const int year = 1992 + Digit(6);
      note(year);
      SetDimPredicate(&q, "date",
                      Predicate::In("d_year", {I(year), I(year + 1)}));
    }
    if (id == "Q4.2") {
      SetDimPredicate(&q, "supplier", Predicate::Eq("s_region", S(region)));
    } else if (id == "Q4.3") {
      // A nation of the customer region, as the specification pairs them.
      std::vector<int> nations;
      for (int n = 0; n < clydesdale::ssb::kNumNations; ++n) {
        if (region == clydesdale::ssb::RegionOfNation(n)) nations.push_back(n);
      }
      const int nation = nations[static_cast<size_t>(
          Digit(static_cast<int>(nations.size())))];
      const int category = Digit(25);
      note(nation), note(category);
      SetDimPredicate(&q, "supplier",
                      Predicate::Eq("s_nation",
                                    S(clydesdale::ssb::NationName(nation))));
      SetDimPredicate(&q, "part",
                      Predicate::Eq("p_category", S(Category(category))));
    }
  }
  return StreamQuery{std::move(key), std::move(q), StreamKind::kFresh};
}

StreamQuery QueryStream::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  StreamQuery query = Draw();
  if (!seen_queries_.insert(query.key).second) {
    query.kind = StreamKind::kRepeat;
    return query;
  }
  for (const auto& join : query.spec.dims) {
    const uint64_t fingerprint = clydesdale::core::FilterFingerprint(
        *join.predicate, join.dim_pk, join.aux_columns);
    if (!seen_filters_.insert({join.dimension, fingerprint}).second) {
      query.kind = StreamKind::kSharedFilter;
    }
  }
  return query;
}

}  // namespace perfbench
