// SSB end-to-end benchmark: one workload per run, against the engines'
// public APIs (ssb::LoadSsb, ClydesdaleEngine, QueryServer, HiveEngine) on
// the default cluster shape of 4 nodes x 2 map slots.
//
//   ssb_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. Either way
// every query result is checked against an independent executor outside
// the timed window, and the last line of stdout is the result object.
// README.md lists the workloads, the metrics and which end-to-end metric
// each per-layer metric should move.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/clydesdale.h"
#include "hive/hive_engine.h"
#include "layers.h"
#include "serving/query_server.h"
#include "serving_stream.h"
#include "ssb/loader.h"
#include "ssb/queries.h"
#include "ssb/reference_executor.h"

namespace perfbench {
namespace {

namespace core = clydesdale::core;
namespace mr = clydesdale::mr;
namespace ssb = clydesdale::ssb;
using clydesdale::Result;
using clydesdale::Row;
using clydesdale::Status;
using clydesdale::Stopwatch;

enum class Engine { kClydesdale, kServing, kHive };

struct Workload {
  const char* name;
  double scale_factor;
  uint64_t dfs_block_size;
  Engine engine;
  int clients;
};

// Sizes are chosen so one run finishes at least 100 timed queries (the
// p90 rule) within a few times --seconds; README.md gives the reasons.
constexpr Workload kWorkloads[] = {
    {"ssb-manysplits", 0.15, 256ull << 10, Engine::kClydesdale, 1},
    {"ssb-bigsplits", 1.0, 64ull << 20, Engine::kClydesdale, 1},
    {"serving-mix", 1.0, 64ull << 20, Engine::kServing, 2},
    {"hive-repartition", 0.01, 64ull << 20, Engine::kHive, 1},
};

/// A --trace 0 run sets up at least this many times, and more until the
/// set-ups have taken kMinSetupSeconds, so that setup_s is a median of
/// several samples even where one set-up takes a tenth of a second.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;
/// Queries a --trace 0 run completes at least, so p90 has 10 samples above.
constexpr size_t kMinTimedQueries = 100;
/// Serving-mix queries run before timing to prime both caches.
constexpr int kServingWarmup = 26;

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},          {"qps", "1/s"},
      {"latency_p50_ms", "ms"},  {"latency_p90_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> table = {
      {"ssb.load_s", "s"},
      {"ssb.fact_rows", "rows"},
      {"hdfs.open_us", "us"},
      {"hdfs.stat_us", "us"},
      {"hdfs.block_locations_us", "us"},
      {"hdfs.read_ops", "count"},
      {"hdfs.read_us", "us"},
      {"hdfs.remote_read_ratio", "ratio"},
      {"hdfs.bytes_written", "bytes"},
      {"storage.splits", "count"},
      {"storage.list_splits_ms", "ms"},
      {"storage.scan_mrows_per_s", "Mrows/s"},
      {"storage.encoded_ratio", "ratio"},
      {"storage.blocks_skipped", "count"},
      {"storage.rows_pruned", "rows"},
      {"core.build_ms", "ms"},
      {"core.hash_builds", "count"},
      {"core.hash_build_rows", "rows"},
      {"core.hash_bytes", "bytes"},
      {"core.probe_rows", "rows"},
      {"core.probe_hit_ratio", "ratio"},
      {"core.agg_groups", "count"},
      {"core.hash_tables_self_ms", "ms"},
      {"core.hash_build_self_ms", "ms"},
      {"core.probe_self_ms", "ms"},
      {"core.aggregate_self_ms", "ms"},
      {"mr.job_wall_ms", "ms"},
      {"mr.map_tasks", "count"},
      {"mr.map_task_p50_ms", "ms"},
      {"mr.map_task_max_ms", "ms"},
      {"mr.reduce_task_max_ms", "ms"},
      {"mr.data_local_ratio", "ratio"},
      {"mr.shuffle_bytes", "bytes"},
      {"mr.replication_rate", "ratio"},
      {"mr.max_reducer_input_bytes", "bytes"},
      {"mr.sched_pulls", "count"},
      {"mr.setup_self_ms", "ms"},
      {"mr.shuffle_self_ms", "ms"},
      {"mr.commit_self_ms", "ms"},
      {"mr.unaccounted_ms", "ms"},
      {"serving.result_hit_ratio", "ratio"},
      {"serving.dim_hit_ratio", "ratio"},
      {"serving.shared_builds", "count"},
      {"serving.evictions", "count"},
      {"serving.cache_resident_mb", "MB"},
      {"serving.repeat_share", "ratio"},
      {"serving.shared_filter_share", "ratio"},
      {"serving.fresh_share", "ratio"},
      {"hive.stage_jobs", "count"},
      {"hive.stage_p50_ms", "ms"},
      {"hive.intermediate_mb_written", "MB"},
      {"hive.shuffle_mb", "MB"},
      {"proc.cpu_util", "ratio"},
      {"obs.trace_overhead", "ratio"},
  };
  return table;
}

/// Exits at once without running destructors, which could wait on the
/// cluster's worker threads mid-query.
[[noreturn]] void Fail(const std::string& message) {
  std::fflush(stdout);
  std::fprintf(stderr, "ssb_bench: %s\n", message.c_str());
  std::_Exit(1);
}

template <typename T>
T Check(Result<T> result, const char* what) {
  if (!result.ok()) Fail(std::string(what) + ": " + result.status().ToString());
  return std::move(*result);
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Runs fn(0..n-1) on up to `threads` threads.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& thread : pool) thread.join();
}

int Cores() {
  return std::max(1, static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)));
}

// --- set-up --------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<mr::MrCluster> cluster;
  ssb::SsbDataset data;
  double load_s = 0;
};

Deployment Deploy(const Workload& workload, uint64_t seed) {
  Deployment d;
  mr::ClusterOptions options;  // 4 nodes x 2 map slots
  options.dfs_block_size = workload.dfs_block_size;
  d.cluster = std::make_unique<mr::MrCluster>(options);
  ssb::SsbLoadOptions load;  // default split sizing
  load.scale_factor = workload.scale_factor;
  load.seed = seed;
  load.with_rcfile = workload.engine == Engine::kHive;
  Stopwatch sw;
  d.data = Check(ssb::LoadSsb(d.cluster.get(), load), "LoadSsb");
  d.load_s = sw.ElapsedSeconds();
  return d;
}

/// The engine a workload drives, traced or not.
class Target {
 public:
  Target(const Workload& workload, Deployment* d, bool traced)
      : engine_(workload.engine) {
    switch (engine_) {
      case Engine::kClydesdale: {
        core::ClydesdaleOptions options;
        options.trace = options.profile = traced;
        clydesdale_ = std::make_unique<core::ClydesdaleEngine>(
            d->cluster.get(), d->data.star, options);
        break;
      }
      case Engine::kServing: {
        clydesdale::serving::QueryServerOptions options;
        options.engine.trace = options.engine.profile = traced;
        server_ = std::make_unique<clydesdale::serving::QueryServer>(
            d->cluster.get(), d->data.star, options);
        break;
      }
      case Engine::kHive: {
        core::StarSchema star = d->data.star;
        *star.mutable_fact() = d->data.fact_rcfile;
        clydesdale::hive::HiveOptions options;  // repartition join
        options.trace = options.profile = traced;
        hive_ = std::make_unique<clydesdale::hive::HiveEngine>(
            d->cluster.get(), star, options);
        break;
      }
    }
  }

  Result<core::QueryResult> Execute(const core::StarQuerySpec& spec) {
    switch (engine_) {
      case Engine::kClydesdale:
        return clydesdale_->Execute(spec);
      case Engine::kServing:
        return server_->Execute(spec);
      case Engine::kHive:
        return hive_->Execute(spec);
    }
    return Status::Internal("unknown engine");
  }

  const char* layer() const {
    return engine_ == Engine::kServing ? "serving"
           : engine_ == Engine::kHive  ? "hive"
                                       : "core";
  }
  clydesdale::serving::QueryServer* server() { return server_.get(); }

 private:
  Engine engine_;
  std::unique_ptr<core::ClydesdaleEngine> clydesdale_;
  std::unique_ptr<clydesdale::serving::QueryServer> server_;
  std::unique_ptr<clydesdale::hive::HiveEngine> hive_;
};

/// Where the clients take their next query from: the serving stream, or
/// the 13 SSB queries in order, back to back.
class Source {
 public:
  Source(const Workload& workload, uint64_t seed) {
    if (workload.engine == Engine::kServing) {
      stream_ = std::make_unique<QueryStream>(seed);
    }
  }
  StreamQuery Next() {
    if (stream_ != nullptr) return stream_->Next();
    static const std::vector<core::StarQuerySpec> queries = ssb::AllQueries();
    const core::StarQuerySpec& spec = queries[next_++ % queries.size()];
    return StreamQuery{spec.id, spec, StreamKind::kFresh};
  }
  /// Queries per whole pass over the 13 templates; a timed window ends on
  /// a pass boundary so every run times the same mix of shapes.
  static size_t pass() {
    static const size_t n = ssb::AllQueries().size();
    return n;
  }

 private:
  std::unique_ptr<QueryStream> stream_;
  size_t next_ = 0;
};

// --- the closed loop ---------------------------------------------------------

struct Sample {
  std::string key;
  core::StarQuerySpec spec;
  StreamKind kind = StreamKind::kFresh;
  double latency_ms = 0;
  double done_s = 0;  ///< Completion, in seconds from the window start.
  bool ok = false;
  std::vector<Row> rows;
};

struct Window {
  std::vector<Sample> samples;
  std::vector<TracedQuery> traced;  ///< Only when a span log was given.
  double wall_s = 0;
  double cpu_s = 0;
  size_t ok() const {
    return static_cast<size_t>(std::count_if(
        samples.begin(), samples.end(), [](const Sample& s) { return s.ok; }));
  }
};

/// `clients` closed-loop clients, each sending its next query only after
/// the previous one returned, until `seconds` have passed, at least
/// `min_queries` finished, and the count is a whole number of passes.
Window RunClosedLoop(Target* target, Source* source, int clients,
                     double seconds, size_t min_queries, SpanLog* log,
                     int parent_span) {
  Window window;
  std::mutex mu;
  std::atomic<size_t> started{0};
  std::atomic<int64_t> next_id{0};
  const double cpu_before = CpuSeconds();
  Stopwatch wall;
  const auto more = [&] {
    const size_t n = started.load();
    return wall.ElapsedSeconds() < seconds || n < min_queries ||
           n % Source::pass() != 0;
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      while (true) {
        StreamQuery query;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!more()) return;
          ++started;
          query = source->Next();
        }
        const int64_t id = next_id++;
        int query_span = -1, engine_span = -1;
        if (log != nullptr) {
          query_span = log->Begin(query.key, "bench", id, parent_span);
          engine_span = log->Begin("Execute", target->layer(), id, query_span);
        }
        Stopwatch sw;
        Result<core::QueryResult> result = target->Execute(query.spec);
        Sample sample{query.key, query.spec, query.kind,
                      sw.ElapsedSeconds() * 1e3, wall.ElapsedSeconds(),
                      result.ok(), {}};
        if (!result.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", query.key.c_str(),
                       result.status().ToString().c_str());
        }
        std::optional<TracedQuery> traced;
        if (log != nullptr) {
          log->End(engine_span);
          if (result.ok()) {
            if (!result->from_result_cache) {
              int64_t at = log->StartOf(engine_span);
              for (const mr::JobReport& job : result->stage_reports) {
                at = log->AddJob(job, id, engine_span, at);
              }
            }
            traced = TracedQuery{*result, query_span};
          }
          log->End(query_span);
        }
        if (result.ok()) sample.rows = std::move(result->rows);
        std::lock_guard<std::mutex> lock(mu);
        window.samples.push_back(std::move(sample));
        if (traced.has_value()) window.traced.push_back(std::move(*traced));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  window.wall_s = wall.ElapsedSeconds();
  window.cpu_s = CpuSeconds() - cpu_before;
  return window;
}

// --- correctness gate --------------------------------------------------------

/// Checks every sample's rows against an independent execution of its
/// query: ssb::ExecuteReference for the fixed 13 queries, a cache-free
/// ClydesdaleEngine for the serving stream's distinct queries. Returns the
/// number of mismatching samples.
size_t CountWrongResults(const Workload& workload, Deployment* d,
                         const std::vector<const Sample*>& samples,
                         const std::map<std::string, core::StarQuerySpec>& specs) {
  std::vector<std::string> keys;
  for (const auto& [key, spec] : specs) keys.push_back(key);
  std::vector<Result<std::vector<Row>>> expected(
      keys.size(), Status::Internal("not run"));
  core::ClydesdaleEngine cache_free(d->cluster.get(), d->data.star);
  ParallelFor(keys.size(), Cores(), [&](size_t i) {
    const core::StarQuerySpec& spec = specs.at(keys[i]);
    if (workload.engine == Engine::kServing) {
      Result<core::QueryResult> result = cache_free.Execute(spec);
      expected[i] = result.ok() ? Result<std::vector<Row>>(std::move(result->rows))
                                : Result<std::vector<Row>>(result.status());
    } else {
      expected[i] = ssb::ExecuteReference(d->cluster.get(), d->data.star, spec);
    }
  });
  std::map<std::string, const std::vector<Row>*> by_key;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!expected[i].ok()) {
      Fail("reference execution of " + keys[i] + " failed: " +
           expected[i].status().ToString());
    }
    by_key[keys[i]] = &*expected[i];
  }
  size_t wrong = 0;
  for (const Sample* sample : samples) {
    if (!sample->ok) continue;  // counted by fail_ratio
    if (sample->rows != *by_key.at(sample->key)) {
      if (wrong == 0) {
        std::fprintf(stderr, "WRONG RESULT for %s (%zu rows, expected %zu)\n",
                     sample->key.c_str(), sample->rows.size(),
                     by_key.at(sample->key)->size());
      }
      ++wrong;
    }
  }
  return wrong;
}

// --- reporting ---------------------------------------------------------------

void PrintMetrics(const char* heading, const std::vector<MetricSpec>& table,
                  const MetricValues& values) {
  std::printf("%s\n", heading);
  for (const MetricSpec& spec : table) {
    std::printf("  %-30s %16.6g %s\n", spec.name.c_str(), values.at(spec.name),
                spec.unit.c_str());
  }
}

/// Cache figures of the serving layer between two stats snapshots.
void AddServingMetrics(const clydesdale::serving::QueryServerStats& before,
                       const clydesdale::serving::QueryServerStats& after,
                       const std::vector<Sample>& samples, MetricValues* m) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0;
  };
  const double dim_hits = static_cast<double>(after.dim_cache.hits -
                                              before.dim_cache.hits);
  const double dim_misses = static_cast<double>(after.dim_cache.misses -
                                                before.dim_cache.misses);
  (*m)["serving.result_hit_ratio"] =
      ratio(static_cast<double>(after.result_cache_hits -
                                before.result_cache_hits),
            static_cast<double>(after.queries - before.queries));
  (*m)["serving.dim_hit_ratio"] = ratio(dim_hits, dim_hits + dim_misses);
  (*m)["serving.shared_builds"] = static_cast<double>(
      after.dim_cache.shared_builds - before.dim_cache.shared_builds);
  (*m)["serving.evictions"] = static_cast<double>(after.dim_cache.evictions -
                                                  before.dim_cache.evictions);
  (*m)["serving.cache_resident_mb"] =
      static_cast<double>(after.dim_cache.resident_bytes) / 1e6;
  std::map<StreamKind, double> kinds;
  for (const Sample& sample : samples) kinds[sample.kind] += 1;
  const double n = static_cast<double>(samples.size());
  (*m)["serving.repeat_share"] = ratio(kinds[StreamKind::kRepeat], n);
  (*m)["serving.shared_filter_share"] =
      ratio(kinds[StreamKind::kSharedFilter], n);
  (*m)["serving.fresh_share"] = ratio(kinds[StreamKind::kFresh], n);
}

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Fail("unknown workload " + value);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args.trace = value == "1";
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (args.workload == nullptr || !have_seed || !have_seconds || !have_trace ||
      argc % 2 == 0) {
    Fail("usage: ssb_bench --workload <name> --seed <n> --seconds <s> "
         "--trace <0|1>");
  }
  return args;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& workload = *args.workload;
  clydesdale::SetLogThreshold(clydesdale::LogLevel::kWarning);
  std::printf("workload %s: SF %g, %llu KiB DFS blocks, %d client(s), seed "
              "%llu, %s\n",
              workload.name, workload.scale_factor,
              static_cast<unsigned long long>(workload.dfs_block_size >> 10),
              workload.clients, static_cast<unsigned long long>(args.seed),
              args.trace ? "traced" : "untraced");

  // Set-up: cluster, data generation and load, and for serving-mix the
  // cache warm-up. Repeated for --trace 0 so setup_s is a median.
  Deployment d;
  std::unique_ptr<Target> target;
  std::unique_ptr<Source> source;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  Window warm;
  while (setup_s.empty() ||
         (!args.trace && (setup_s.size() < kMinSetups ||
                          setup_total_s < kMinSetupSeconds))) {
    target.reset();  // before the cluster it points into
    d = Deployment{};
    // Hand the previous set-up's freed heap back to the OS, so repeating
    // the set-up does not inflate peak_rss_mb.
    malloc_trim(0);
    Stopwatch sw;
    d = Deploy(workload, args.seed);
    target = std::make_unique<Target>(workload, &d, /*traced=*/false);
    source = std::make_unique<Source>(workload, args.seed);
    if (workload.engine == Engine::kServing) {
      warm = RunClosedLoop(target.get(), source.get(), workload.clients, 0,
                           kServingWarmup, nullptr, -1);
    }
    setup_s.push_back(sw.ElapsedSeconds());
    setup_total_s += setup_s.back();
  }
  if (workload.engine != Engine::kServing) {
    warm = RunClosedLoop(target.get(), source.get(), 1, 0, Source::pass(),
                         nullptr, -1);
  }
  std::vector<Window> checked;  // every window whose rows the gate checks
  checked.push_back(std::move(warm));
  const int splits = static_cast<int>(
      Check(clydesdale::storage::ListTableSplits(*d.cluster->dfs(),
                                                 d.data.star.fact()),
            "ListTableSplits")
          .size());
  std::printf("loaded %llu fact rows in %d CIF splits; set-up %.3f s; "
              "peak RSS so far %.1f MB\n",
              static_cast<unsigned long long>(d.data.lineorder_rows), splits,
              setup_s.back(), PeakRssMb());

  MetricValues values;
  const std::vector<MetricSpec>* table = &EndToEndMetrics();
  if (!args.trace) {
    const auto before = target->server() != nullptr
                            ? target->server()->stats()
                            : clydesdale::serving::QueryServerStats{};
    Window timed = RunClosedLoop(target.get(), source.get(), workload.clients,
                                 args.seconds, kMinTimedQueries, nullptr, -1);
    // The program's peak, before the correctness gate adds its own.
    values["peak_rss_mb"] = PeakRssMb();
    std::vector<double> ok_latencies;
    for (const Sample& s : timed.samples) {
      if (s.ok) ok_latencies.push_back(s.latency_ms);
    }
    const size_t attempted = timed.samples.size();
    if (HighestSupportedPercentile(ok_latencies.size()) < 90) {
      Fail("too few successful queries for a p90");
    }
    values["setup_s"] = NearestRankPercentile(setup_s, 50);
    std::vector<std::pair<double, bool>> completions;
    for (const Sample& s : timed.samples) completions.emplace_back(s.done_s, s.ok);
    values["qps"] = MedianPassRate(completions, Source::pass());
    values["latency_p50_ms"] = NearestRankPercentile(ok_latencies, 50);
    values["latency_p90_ms"] = NearestRankPercentile(ok_latencies, 90);
    std::printf("timed %zu queries in %.3f s (%.4g per second overall), "
                "set up %zu times; p90 over %zu samples\n",
                attempted, timed.wall_s,
                static_cast<double>(timed.ok()) / timed.wall_s,
                setup_s.size(), ok_latencies.size());
    std::printf("  %-30s %16.6g ratio\n", "fail_ratio",
                1 - static_cast<double>(timed.ok()) /
                        static_cast<double>(attempted));
    if (target->server() != nullptr) {
      MetricValues serving;
      AddServingMetrics(before, target->server()->stats(), timed.samples,
                        &serving);
      for (const auto& [name, value] : serving) {
        std::printf("  %-30s %16.6g\n", name.c_str(), value);
      }
    }
    checked.push_back(std::move(timed));
  } else {
    table = &PerLayerMetrics();
    // Untraced half: the base of obs.trace_overhead and proc.cpu_util.
    Window plain = RunClosedLoop(target.get(), source.get(), workload.clients,
                                 args.seconds / 2, 1, nullptr, -1);
    const double plain_qps = static_cast<double>(plain.ok()) / plain.wall_s;
    values["proc.cpu_util"] = plain.cpu_s / (plain.wall_s * Cores());
    checked.push_back(std::move(plain));

    SpanLog log;
    const int root = log.Begin(workload.name, "bench", -1, -1);
    Target traced_target(workload, &d, /*traced=*/true);
    if (workload.engine == Engine::kServing) {
      checked.push_back(RunClosedLoop(&traced_target, source.get(),
                                      workload.clients, 0, kServingWarmup,
                                      nullptr, -1));
    }
    const auto before = traced_target.server() != nullptr
                            ? traced_target.server()->stats()
                            : clydesdale::serving::QueryServerStats{};
    Window traced = RunClosedLoop(&traced_target, source.get(),
                                  workload.clients, args.seconds / 2, 1, &log,
                                  root);
    values["obs.trace_overhead"] =
        static_cast<double>(traced.ok()) / traced.wall_s / plain_qps;
    if (traced_target.server() != nullptr) {
      AddServingMetrics(before, traced_target.server()->stats(),
                        traced.samples, &values);
    } else {
      AddServingMetrics({}, {}, {}, &values);
    }

    // Outside-timed layer calls, once per SSB query, after the traced
    // window so they do not disturb it.
    ProbeTimes sum;
    const std::vector<core::StarQuerySpec> queries = ssb::AllQueries();
    for (const core::StarQuerySpec& spec : queries) {
      const int span = log.Begin(spec.id, "bench", -1, root);
      const ProbeTimes t = Check(
          ProbeQuery(d.cluster.get(), d.data.star, spec, &log, -1, span),
          "layer probe");
      log.End(span);
      sum.splits = t.splits;
      sum.list_splits_ms += t.list_splits_ms;
      sum.block_locations_us += t.block_locations_us;
      sum.open_us += t.open_us;
      sum.stat_us += t.stat_us;
      sum.build_ms += t.build_ms;
    }
    const double n = static_cast<double>(queries.size());
    values["hdfs.open_us"] = sum.open_us / n;
    values["hdfs.stat_us"] = sum.stat_us / n;
    values["hdfs.block_locations_us"] = sum.block_locations_us / n;
    values["storage.splits"] = static_cast<double>(sum.splits);
    values["storage.list_splits_ms"] = sum.list_splits_ms / n;
    values["core.build_ms"] = sum.build_ms / n;
    const int scan = log.Begin("scan", "storage", -1, root);
    values["storage.scan_mrows_per_s"] =
        Check(ScanRowsPerSecond(d.cluster.get(), d.data.star), "scan") / 1e6;
    log.End(scan);
    log.End(root);
    values["ssb.load_s"] = d.load_s;
    values["ssb.fact_rows"] = static_cast<double>(d.data.lineorder_rows);
    AddReportMetrics(traced.traced, log, &values);
    PrintJobCosts(traced.traced, log);
    std::printf("traced %zu queries in %.3f s, %zu spans\n",
                traced.samples.size(), traced.wall_s, log.spans().size());
    checked.push_back(std::move(traced));
  }

  // Correctness gate, outside every timed window.
  std::vector<const Sample*> samples;
  std::map<std::string, core::StarQuerySpec> specs;
  int64_t attempted = 0, failed = 0;
  for (const Window& w : checked) {
    for (const Sample& s : w.samples) {
      samples.push_back(&s);
      specs.emplace(s.key, s.spec);
      ++attempted;
      failed += s.ok ? 0 : 1;
    }
  }
  Stopwatch gate;
  const size_t wrong = CountWrongResults(workload, &d, samples, specs);
  std::printf("correctness gate: %zu results of %zu distinct queries checked "
              "in %.3f s, %zu wrong\n",
              samples.size(), specs.size(), gate.ElapsedSeconds(), wrong);

  const std::string problems = CheckMetrics(*table, values);
  if (!problems.empty()) Fail("metric check failed:\n" + problems);
  PrintMetrics(args.trace ? "per-layer metrics:" : "end-to-end metrics:",
               *table, values);
  std::printf("%s\n",
              ResultJson(wrong == 0, attempted, failed, *table, values).c_str());
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
