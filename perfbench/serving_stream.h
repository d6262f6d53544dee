#ifndef CLYDESDALE_PERFBENCH_SERVING_STREAM_H_
#define CLYDESDALE_PERFBENCH_SERVING_STREAM_H_

// The serving-mix query stream: the 13 SSB templates with their predicate
// constants drawn zipfian from the SSB specification's substitution
// domains (years, year-months, weeks, discounts, regions, nations, cities,
// manufacturers, categories, brands). Skewed draws make the stream mix
// exact repeats, queries that share a dimension filter with an earlier
// one, and queries whose every dimension filter is new.

#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/star_query.h"

namespace perfbench {

enum class StreamKind { kRepeat, kSharedFilter, kFresh };

struct StreamQuery {
  /// Template id plus the drawn constants; equal keys are equal queries.
  std::string key;
  clydesdale::core::StarQuerySpec spec;
  /// Relative to every query drawn before this one.
  StreamKind kind = StreamKind::kFresh;
};

/// A seeded, endless stream shared by the closed-loop clients: each client
/// takes the next query when its previous one returns.
class QueryStream {
 public:
  explicit QueryStream(uint64_t seed);

  /// Thread-safe.
  StreamQuery Next();

 private:
  /// The next constant, in [0, n), taken from the current query's rank.
  int Digit(int n);
  StreamQuery Draw();

  std::mutex mu_;
  clydesdale::Random rng_;
  /// Zipfian CDF over variant ranks: P(k) is proportional to (k + 1)^-s.
  std::vector<double> cdf_;
  uint64_t rank_ = 0;
  /// Per template: where its rank sequence is, in [0, 1).
  std::vector<double> position_;
  /// Templates left in the current round.
  std::vector<size_t> round_;
  std::set<std::string> seen_queries_;
  /// (dimension, filter fingerprint) — the dimension-cache identity.
  std::set<std::pair<std::string, uint64_t>> seen_filters_;
};

}  // namespace perfbench

#endif  // CLYDESDALE_PERFBENCH_SERVING_STREAM_H_
