// Reproduces the paper's §6.3 stage-by-stage breakdown of query 2.1 on
// Cluster A at SF1000: Clydesdale (~215 s total: ~27 s hash build, ~164 s
// probe at ~67 MB/s, <10 s sort) versus Hive's five-stage mapjoin plan
// (~15,142 s) and repartition plan (~17,700 s).

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/clydesdale.h"
#include "mapreduce/job_trace.h"
#include "obs/query_profile.h"

using namespace clydesdale;        // NOLINT(build/namespaces)
using namespace clydesdale::bench; // NOLINT(build/namespaces)

namespace {

/// Walks the merged profile checking the EXPLAIN ANALYZE invariants from the
/// acceptance list: selectivities stay in [0,1] and wall(sum) bounds
/// wall(max) on every node.
void CheckNodeInvariants(const obs::OperatorProfile& node) {
  if (node.rows_in > 0) {
    const double sel = node.selectivity();
    CLY_CHECK(sel >= 0.0 && sel <= 1.0);
  }
  CLY_CHECK(node.wall_ns >= node.wall_max_ns);
  for (const obs::OperatorProfile& child : node.children) {
    CheckNodeInvariants(child);
  }
}

/// Finds the first node named `name` (exact or prefix for scan:<path>)
/// anywhere in the profile tree.
const obs::OperatorProfile* FindNode(const obs::OperatorProfile& node,
                                     const char* prefix) {
  if (node.name.compare(0, std::strlen(prefix), prefix) == 0) return &node;
  for (const obs::OperatorProfile& child : node.children) {
    if (const obs::OperatorProfile* hit = FindNode(child, prefix)) return hit;
  }
  return nullptr;
}

void PrintOutcome(const char* label, const sim::SimOutcome& outcome) {
  std::printf("%s: %.0f s total\n", label, outcome.seconds);
  for (const sim::StageResult& stage : outcome.stages) {
    std::printf("  %-28s %8.0f s   (%d tasks, avg task %.1f s)\n",
                stage.name.c_str(), stage.seconds, stage.num_tasks,
                stage.avg_task_s);
  }
  if (outcome.oom) std::printf("  OOM: %s\n", outcome.oom_detail.c_str());
  std::printf("\n");
}

}  // namespace

int main() {
  BenchEnv env = LoadBenchEnv();
  const sim::ClusterSpec spec = sim::ClusterSpec::ClusterA();
  sim::ModelOptions options;
  options.target_sf = TargetScaleFactor();

  auto query = ssb::QueryById("Q2.1");
  CLY_CHECK(query.ok());
  auto m = sim::MeasureQuery(env.cluster.get(), env.dataset, *query);
  CLY_CHECK(m.ok());

  std::printf("Query 2.1 breakdown on Cluster A at SF%.0f (paper §6.3)\n\n",
              options.target_sf);
  std::printf(
      "measured widths: %.1f B/row projected CIF (paper task read 10.8 GB "
      "per node), %.1f B/row full CIF, %.1f B/row RCFile\n\n",
      m->cif_projected_width, m->cif_full_width, m->rcfile_full_width);

  auto cly = sim::ModelClydesdale(spec, *m, options);
  CLY_CHECK(cly.ok());
  PrintOutcome("Clydesdale (paper: 215 s; 27 s build + 164 s probe)", *cly);

  auto mj = sim::ModelHive(spec, *m, hive::JoinStrategy::kMapJoin, options);
  CLY_CHECK(mj.ok());
  PrintOutcome(
      "Hive mapjoin (paper: 15,142 s; stages 2640 / 2040 / 9180 / 720 / 19)",
      *mj);

  auto rp = sim::ModelHive(spec, *m, hive::JoinStrategy::kRepartition,
                           options);
  CLY_CHECK(rp.ok());
  PrintOutcome(
      "Hive repartition (paper: 17,700 s; stages 9720 / 7140 / 420 + agg)",
      *rp);

  std::printf("speedups: %.0fx over mapjoin, %.0fx over repartition "
              "(paper: ~70x, ~82x)\n",
              mj->seconds / cly->seconds, rp->seconds / cly->seconds);

  // With CLY_TRACE_DIR set, re-run Q2.1 through the functional engine with
  // tracing and profiling on: span tracing drops a Chrome trace
  // (chrome://tracing / Perfetto) + plain-text timeline there, and the
  // profiler adds the EXPLAIN ANALYZE report (.profile.json/.profile.txt) —
  // the measured counterpart of the modeled breakdown above. run_benches.sh
  // publishes the artifacts.
  const char* trace_dir = std::getenv("CLY_TRACE_DIR");
  if (trace_dir != nullptr && trace_dir[0] != '\0') {
    core::ClydesdaleOptions copts;
    copts.trace = true;
    copts.trace_dir = trace_dir;
    copts.profile = true;
    core::ClydesdaleEngine engine(env.cluster.get(), env.dataset.star, copts);
    auto traced = engine.Execute(*query);
    CLY_CHECK(traced.ok());
    const mr::JobReport& report = traced->stage_reports[0];
    std::printf("\ntraced functional run (SF%g): %s\n",
                MeasurementScaleFactor(),
                mr::CriticalPath(report).ToString().c_str());

    // EXPLAIN ANALYZE acceptance invariants on the merged profile: the fact
    // scan feeds the probe row-for-row, every selectivity is a real
    // fraction, and the profiled task-attempt envelope accounts for the job
    // wall clock (within 5%, minus a 2 ms floor for sub-smoke runs where
    // split planning dominates).
    const obs::QueryProfile& profile = report.profile;
    CLY_CHECK(!profile.empty());
    for (const obs::OperatorProfile& root : profile.roots) {
      CheckNodeInvariants(root);
    }
    const obs::OperatorProfile* map_root = nullptr;
    for (const obs::OperatorProfile& root : profile.roots) {
      if (root.name == "map") map_root = &root;
    }
    CLY_CHECK(map_root != nullptr);
    const obs::OperatorProfile* scan = FindNode(*map_root, "scan:");
    const obs::OperatorProfile* probe = FindNode(*map_root, "probe");
    CLY_CHECK(scan != nullptr && probe != nullptr);
    CLY_CHECK(scan->rows_out == probe->rows_in);
    const double span_s = profile.ProfiledSpanSeconds();
    CLY_CHECK(span_s <= report.wall_seconds + 1e-6);
    CLY_CHECK(span_s >= 0.95 * report.wall_seconds - 0.002);

    std::printf("\n%s\n", obs::ExplainAnalyzeText(profile).c_str());
    std::printf("trace + profile artifacts written to %s\n", trace_dir);

    // Profiler overhead A/B (acceptance: <=3% with the knob on at bench
    // scale, exactly zero instrumentation when off). Min-of-3 untraced runs
    // per arm so scheduler noise doesn't masquerade as overhead.
    double wall_off = 0, wall_on = 0;
    for (int arm = 0; arm < 2; ++arm) {
      double best = 0;
      for (int rep = 0; rep < 3; ++rep) {
        core::ClydesdaleOptions plain;
        plain.profile = (arm == 1);
        core::ClydesdaleEngine ab(env.cluster.get(), env.dataset.star, plain);
        Stopwatch timer;
        auto run = ab.Execute(*query);
        const double secs = timer.ElapsedSeconds();
        CLY_CHECK(run.ok());
        if (arm == 0) CLY_CHECK(run->stage_reports[0].profile.empty());
        if (rep == 0 || secs < best) best = secs;
      }
      (arm == 0 ? wall_off : wall_on) = best;
    }
    std::printf("profiler overhead: off=%.3fs on=%.3fs (%+.2f%%)\n", wall_off,
                wall_on, 100.0 * (wall_on - wall_off) / wall_off);
  }

  // With CLY_MEMORY_JSON set, measure the hierarchical memory accounting on
  // the functional engine: a profiled Q2.1 reports each operator's peak
  // resident bytes (dim tables, scan arenas, partial aggregates, shuffle
  // runs) and the job's peak, which land in BENCH_memory.json via
  // run_benches.sh.
  const char* memory_json = std::getenv("CLY_MEMORY_JSON");
  if (memory_json != nullptr && memory_json[0] != '\0') {
    core::ClydesdaleOptions mopts;
    mopts.profile = true;
    core::ClydesdaleEngine engine(env.cluster.get(), env.dataset.star, mopts);
    auto run = engine.Execute(*query);
    CLY_CHECK(run.ok());
    const obs::QueryProfile& profile = run->stage_reports[0].profile;
    CLY_CHECK(!profile.empty());

    const char* ops[] = {"scan:", "probe", "aggregate", "shuffle"};
    const char* keys[] = {"scan", "probe", "aggregate", "shuffle"};
    uint64_t peaks[4] = {0, 0, 0, 0};
    std::printf("\npeak memory per operator (tracked, Q2.1):\n");
    for (int i = 0; i < 4; ++i) {
      const obs::OperatorProfile* node = nullptr;
      for (const obs::OperatorProfile& root : profile.roots) {
        if ((node = FindNode(root, ops[i])) != nullptr) break;
      }
      CLY_CHECK(node != nullptr);
      // Acceptance: every memory-bearing operator reports a real footprint.
      CLY_CHECK(node->mem_peak_bytes > 0);
      CLY_CHECK(node->mem_peak_bytes >= node->mem_current_bytes);
      peaks[i] = node->mem_peak_bytes;
      std::printf("  %-10s %10.1f KiB peak (%.1f KiB still resident at "
                  "task end)\n",
                  keys[i], node->mem_peak_bytes / 1024.0,
                  node->mem_current_bytes / 1024.0);
    }
    const int64_t job_peak =
        run->Counter(mr::kCounterMemJobPeakBytes);
    CLY_CHECK(job_peak > 0);
    std::printf("  job peak (sum of per-node trackers): %.1f KiB\n",
                job_peak / 1024.0);

    std::FILE* out = std::fopen(memory_json, "w");
    CLY_CHECK(out != nullptr);
    std::fprintf(out, "{\n  \"operator_peak_bytes\": {\n");
    for (int i = 0; i < 4; ++i) {
      std::fprintf(out, "    \"%s\": %llu%s\n", keys[i],
                   static_cast<unsigned long long>(peaks[i]),
                   i < 3 ? "," : "");
    }
    std::fprintf(out, "  },\n  \"job_peak_bytes\": %lld\n}\n",
                 static_cast<long long>(job_peak));
    std::fclose(out);
    std::printf("wrote %s\n", memory_json);
  }

  // With CLY_Q21_JSON set, A/B the shuffle handoff on the functional
  // engine: "barrier" waits for every map before reducers fetch, "pipelined"
  // lets reducers fetch published runs while maps still run. Output is
  // byte-identical either way; the JSON captures the wall-clock delta and
  // the measured overlap window.
  const char* q21_json = std::getenv("CLY_Q21_JSON");
  if (q21_json != nullptr && q21_json[0] != '\0') {
    std::FILE* out = std::fopen(q21_json, "w");
    CLY_CHECK(out != nullptr);
    std::fprintf(out, "{\n");
    const char* mode_names[] = {"barrier", "pipelined"};
    for (int mode = 0; mode < 2; ++mode) {
      core::ClydesdaleOptions copts;
      copts.trace = true;  // in-memory spans only: needed for the overlap
      copts.pipelined_shuffle = (mode == 1);
      core::ClydesdaleEngine engine(env.cluster.get(), env.dataset.star,
                                    copts);
      auto run = engine.Execute(*query);
      CLY_CHECK(run.ok());
      const mr::JobReport& r = run->stage_reports[0];
      const mr::CriticalPathReport path = mr::CriticalPath(r);
      std::fprintf(out,
                   "  \"%s\": {\"wall_seconds\": %.6f, "
                   "\"map_phase_seconds\": %.6f, "
                   "\"shuffle_overlap_seconds\": %.6f}%s\n",
                   mode_names[mode], r.wall_seconds, path.map_phase_seconds,
                   path.shuffle_overlap_seconds, mode == 0 ? "," : "");
      std::printf("%s Q2.1: %.3f s wall, %.3f s shuffle overlap\n",
                  mode_names[mode], r.wall_seconds,
                  path.shuffle_overlap_seconds);
    }
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", q21_json);
  }
  return 0;
}
