#ifndef CLYDESDALE_OBS_QUERY_PROFILE_H_
#define CLYDESDALE_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace clydesdale {
namespace obs {

/// One node of a per-operator execution profile: the actuals the paper's
/// §6.3 plan dissection reads off a run (row counts, time, bytes) for a
/// single plan step. Nodes are built per task attempt by the operator that
/// owns the step (scan, probe, aggregate, shuffle, ...) and merged
/// tree-structurally across attempts at job commit — counters add, wall
/// maxima track the slowest attempt, and children match by name. The struct
/// is deliberately plain data (no mapreduce dependencies) so the obs layer
/// stays at the bottom of the library stack.
struct OperatorProfile {
  std::string name;  ///< Unique among siblings, e.g. "scan:/ssb/lineorder".
  std::string kind;  ///< "scan" | "probe" | "aggregate" | "shuffle" | ...

  uint64_t rows_in = 0;
  /// False for a node that counts no input (a map task's root: its scans
  /// count it). Renderers then omit rows_in rather than print a 0.
  bool rows_in_counted = true;
  uint64_t rows_out = 0;
  uint64_t batches = 0;
  uint64_t wall_ns = 0;      ///< Summed across attempts (total work).
  uint64_t wall_max_ns = 0;  ///< Slowest single attempt (critical path).
  uint64_t cpu_ns = 0;       ///< Thread CPU time, summed across attempts.

  // Scan-only detail (zero elsewhere): decoded-vs-skipped accounting and the
  // per-encoding / zone-map hit histograms from storage::ScanStats.
  uint64_t bytes_decoded = 0;
  uint64_t bytes_raw = 0;
  uint64_t blocks_skipped = 0;
  uint64_t rows_pruned = 0;
  uint64_t blocks_by_encoding[6] = {0, 0, 0, 0, 0, 0};

  // Memory accounting (obs::MemTracker attribution). Gauges, not counters:
  // MergeFrom takes the max across attempts rather than summing, so a node
  // reports the largest single-attempt footprint — summing would double-count
  // dimension tables shared by every attempt on a node (paper §5.2).
  uint64_t mem_current_bytes = 0;  ///< Bytes still held at attempt end.
  uint64_t mem_peak_bytes = 0;     ///< High-water mark over the attempt.

  /// Task attempts that contributed to this node.
  uint64_t tasks = 0;

  std::vector<OperatorProfile> children;

  /// rows_out / rows_in, or -1 when the node has no input rows (sources).
  double selectivity() const {
    if (rows_in == 0) return -1.0;
    return static_cast<double>(rows_out) / static_cast<double>(rows_in);
  }

  /// Child with the given name, creating an empty one if absent. A new child
  /// goes before the first sibling whose name sorts after it; names are
  /// unique among siblings, so a tree merged from empty is in name order.
  OperatorProfile* Child(std::string_view child_name);

  /// Adds `other`'s counters into this node and recursively merges its
  /// children by name (unmatched children are inserted in name order).
  /// Loss-free: every counter of `other` lands exactly once. rows_in stays
  /// counted only while every merged node counted it.
  void MergeFrom(const OperatorProfile& other);
};

/// Job-level profile: one merged operator tree per attempt shape (typically
/// a "map" root and, for jobs with reducers, a "reduce" root), plus the
/// wall-clock envelope of the profiled attempts.
struct QueryProfile {
  double wall_seconds = 0;   ///< Whole-job wall clock (from JobReport).
  int64_t first_start_us = 0;  ///< Earliest attempt start (steady clock).
  int64_t last_end_us = 0;     ///< Latest attempt end (steady clock).
  std::vector<OperatorProfile> roots;

  bool empty() const { return roots.empty(); }

  /// Wall-clock span actually covered by profiled attempts, in seconds.
  double ProfiledSpanSeconds() const {
    return last_end_us > first_start_us
               ? static_cast<double>(last_end_us - first_start_us) / 1e6
               : 0.0;
  }

  /// Root with the given name, creating an empty one if absent; roots keep
  /// name order like OperatorProfile::Child.
  OperatorProfile* Root(std::string_view root_name);

  /// Merges one attempt's tree (root matched by name) and widens the
  /// [first_start_us, last_end_us] envelope.
  void MergeAttempt(const OperatorProfile& attempt_root, int64_t start_us,
                    int64_t end_us);

  void MergeFrom(const QueryProfile& other);
};

/// Total node count across all roots.
uint64_t NumProfileOperators(const QueryProfile& profile);

/// Human-readable annotated plan tree ("EXPLAIN ANALYZE ..."); one line per
/// operator with rows/selectivity/time, plus scan byte/block detail
/// where present. Estimates-vs-actuals columns appear once a planner
/// produces estimates; today every column is an actual.
std::string ExplainAnalyzeText(const QueryProfile& profile);

/// The same tree as one JSON object (stable field order, ints exact, doubles
/// %.17g) — the payload of a profiled, traced job's <job>-<n>.profile.json.
std::string ExplainAnalyzeJson(const QueryProfile& profile);

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_QUERY_PROFILE_H_
