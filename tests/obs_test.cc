#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "mapreduce/job_trace.h"
#include "obs/chrome_trace.h"
#include "obs/histogram.h"
#include "obs/json_util.h"
#include "obs/trace.h"

namespace clydesdale {
namespace obs {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0);
  EXPECT_EQ(h.Sum(), 0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.ToString(), "count=0");
}

TEST(HistogramTest, SmallValuesAreExact) {
  Histogram h;
  for (int64_t v = 1; v <= 10; ++v) h.Record(v);
  EXPECT_EQ(h.Count(), 10);
  EXPECT_EQ(h.Sum(), 55);
  EXPECT_EQ(h.Min(), 1);
  EXPECT_EQ(h.Max(), 10);
  EXPECT_DOUBLE_EQ(h.Mean(), 5.5);
  // Values < 32 land in unit buckets, so quantiles are exact.
  EXPECT_EQ(h.Percentile(0.5), 5);
  EXPECT_EQ(h.Percentile(1.0), 10);
  EXPECT_EQ(h.Percentile(0.0), 1);
}

TEST(HistogramTest, LargeValuesBoundedRelativeError) {
  Histogram h;
  for (int64_t v = 1000; v <= 100000; v += 1000) h.Record(v);
  // Sub-bucketing guarantees <= 1/32 relative error on quantile bounds.
  const int64_t p50 = h.Percentile(0.5);
  EXPECT_GE(p50, 46000);
  EXPECT_LE(p50, 52000);
  EXPECT_LE(h.Percentile(0.5), h.Percentile(0.95));
  EXPECT_LE(h.Percentile(0.95), h.Percentile(0.99));
  EXPECT_LE(h.Percentile(0.99), h.Max());
}

TEST(HistogramTest, PercentileClampedToObservedRange) {
  Histogram h;
  h.Record(1'000'000);  // single value: every quantile is that value
  EXPECT_EQ(h.Percentile(0.0), 1'000'000);
  EXPECT_EQ(h.Percentile(0.5), 1'000'000);
  EXPECT_EQ(h.Percentile(1.0), 1'000'000);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-5);
  EXPECT_EQ(h.Count(), 1);
  EXPECT_EQ(h.Min(), 0);
}

TEST(HistogramTest, MergeFromAccumulates) {
  Histogram a, b;
  a.Record(1);
  a.Record(100);
  b.Record(50);
  b.Record(7000);
  a.MergeFrom(b);
  EXPECT_EQ(a.Count(), 4);
  EXPECT_EQ(a.Sum(), 7151);
  EXPECT_EQ(a.Min(), 1);
  EXPECT_EQ(a.Max(), 7000);
  Histogram empty;
  a.MergeFrom(empty);  // merging an empty histogram is a no-op
  EXPECT_EQ(a.Count(), 4);
}

TEST(HistogramTest, ToStringShowsPercentiles) {
  Histogram h;
  for (int64_t v = 1; v <= 12; ++v) h.Record(v);
  const std::string s = h.ToString();
  EXPECT_NE(s.find("count=12"), std::string::npos) << s;
  EXPECT_NE(s.find("p50="), std::string::npos) << s;
  EXPECT_NE(s.find("p95="), std::string::npos) << s;
  EXPECT_NE(s.find("p99="), std::string::npos) << s;
  EXPECT_NE(s.find("max=12"), std::string::npos) << s;
}

TEST(HistogramTest, ConcurrentRecordsAllLand) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(i);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(h.Count(), kThreads * kPerThread);
  EXPECT_EQ(h.Max(), kPerThread - 1);
}

TEST(JsonUtilTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonQuote("line1\nline2\ttab"), "\"line1\\nline2\\ttab\"");
  // Control characters without a short escape become \u00XX.
  EXPECT_EQ(JsonQuote(std::string("nul\x01", 4)), "\"nul\\u0001\"");
  EXPECT_EQ(JsonQuote(std::string(1, '\x1f')), "\"\\u001f\"");
  std::string out = "prefix:";
  AppendJsonEscaped(&out, "x\"y");
  EXPECT_EQ(out, "prefix:x\\\"y") << "append form adds no quotes";
}

TEST(JsonUtilTest, JsonDoubleRoundTripsExactly) {
  for (double v : {0.0, 0.1, 1.0 / 3.0, 123456.789, 2.5e-17}) {
    const std::string s = JsonDouble(v);
    EXPECT_EQ(strtod(s.c_str(), nullptr), v) << s;
  }
}

TEST(HistogramRegistryTest, GetCreatesFindDoesNot) {
  HistogramRegistry registry;
  EXPECT_EQ(registry.Find("absent"), nullptr);
  Histogram* h = registry.Get("map_micros");
  ASSERT_NE(h, nullptr);
  h->Record(42);
  EXPECT_EQ(registry.Get("map_micros"), h) << "stable pointer";
  ASSERT_NE(registry.Find("map_micros"), nullptr);
  EXPECT_EQ(registry.Find("map_micros")->Count(), 1);

  HistogramRegistry copy = registry;
  ASSERT_NE(copy.Find("map_micros"), nullptr);
  EXPECT_EQ(copy.Find("map_micros")->Count(), 1);
  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot.at("map_micros").Count(), 1);
}

/// Task-local histograms merging into one shared registry concurrently —
/// the hot-path pattern the Histogram doc comment prescribes. Run under
/// TSan via the tsan CMake preset.
TEST(HistogramRegistryTest, ConcurrentMergeFromDropsNothing) {
  HistogramRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kTasksPerThread = 25;
  constexpr int kRecordsPerTask = 100;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry] {
      for (int task = 0; task < kTasksPerThread; ++task) {
        Histogram local;
        for (int i = 0; i < kRecordsPerTask; ++i) local.Record(i);
        registry.Get("map_micros")->MergeFrom(local);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const Histogram* merged = registry.Find("map_micros");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->Count(), kThreads * kTasksPerThread * kRecordsPerTask);
  EXPECT_EQ(merged->Max(), kRecordsPerTask - 1);
  EXPECT_EQ(merged->Sum(), static_cast<int64_t>(kThreads) * kTasksPerThread *
                               (kRecordsPerTask * (kRecordsPerTask - 1) / 2));
}

TEST(TraceTest, RecordsNestedSpans) {
  TraceRecorder recorder;
  {
    Span task(&recorder, "map-task", "task", /*task=*/3, /*node=*/1);
    {
      Span probe(&recorder, "probe", "stage", 3, 1);
    }
    {
      Span aggregate(&recorder, "aggregate", "stage", 3, 1);
    }
  }
  std::vector<SpanRecord> spans = recorder.Drain();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted parent-first: the enclosing task span leads.
  EXPECT_EQ(spans[0].name, "map-task");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "probe");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "aggregate");
  EXPECT_EQ(spans[2].depth, 1);
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.task, 3);
    EXPECT_EQ(s.node, 1);
    EXPECT_GE(s.start_us, 0);
    EXPECT_GE(s.dur_us, 0);
    EXPECT_LE(s.end_us(), spans[0].end_us()) << "children fit in parent";
  }
}

TEST(TraceTest, SortByStartOrdersTiesByStartSequence) {
  // A parent and two siblings that all start in one microsecond, the later
  // sibling running longer than the earlier one, plus a span that starts
  // later but began its construction first. Start time decides, then start
  // order; duration and depth play no part.
  auto make = [](const char* name, int64_t start, int64_t dur, int depth,
                 uint64_t seq) {
    SpanRecord r;
    r.name = name;
    r.start_us = start;
    r.dur_us = dur;
    r.depth = depth;
    r.seq = seq;
    return r;
  };
  std::vector<SpanRecord> spans = {
      make("aggregate", 5, 3, 1, 3), make("later", 6, 1, 0, 0),
      make("probe", 5, 1, 1, 2), make("map-task", 5, 4, 0, 1)};
  SortByStart(&spans);
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "map-task");
  EXPECT_EQ(spans[1].name, "probe");
  EXPECT_EQ(spans[2].name, "aggregate");
  EXPECT_EQ(spans[3].name, "later");
}

TEST(TraceTest, NullRecorderIsInertAndEndIdempotent) {
  Span span(nullptr, "never-recorded", "stage");
  span.End();
  span.End();  // double-End must be harmless

  TraceRecorder recorder;
  {
    Span real(&recorder, "once", "stage");
    real.End();
    real.End();
  }
  EXPECT_EQ(recorder.num_spans(), 1u) << "End is idempotent";
}

TEST(TraceTest, DrainMovesSpansOut) {
  TraceRecorder recorder;
  { Span s(&recorder, "a", "stage"); }
  EXPECT_EQ(recorder.Drain().size(), 1u);
  EXPECT_TRUE(recorder.Drain().empty()) << "second drain is empty";
  { Span s(&recorder, "b", "stage"); }
  EXPECT_EQ(recorder.Drain().size(), 1u) << "recorder usable after drain";
}

/// Four concurrent producers (the shape of 4 map slots): every span must
/// land, tids must be distinct per thread, nesting depths must be
/// per-thread consistent. Run under TSan via the tsan CMake preset.
TEST(TraceTest, ConcurrentProducersDropNothing) {
  TraceRecorder recorder;
  constexpr int kSlots = 4;
  constexpr int kTasksPerSlot = 50;
  std::vector<std::thread> slots;
  for (int slot = 0; slot < kSlots; ++slot) {
    slots.emplace_back([&recorder, slot] {
      for (int i = 0; i < kTasksPerSlot; ++i) {
        Span task(&recorder, "map-task", "task", slot * kTasksPerSlot + i,
                  slot);
        Span stage(&recorder, "probe", "stage", slot * kTasksPerSlot + i,
                   slot);
      }
    });
  }
  for (std::thread& t : slots) t.join();

  std::vector<SpanRecord> spans = recorder.Drain();
  ASSERT_EQ(spans.size(), static_cast<size_t>(2 * kSlots * kTasksPerSlot));
  std::set<int> tids;
  int tasks = 0, stages = 0;
  for (const SpanRecord& s : spans) {
    tids.insert(s.tid);
    if (s.name == "map-task") {
      ++tasks;
      EXPECT_EQ(s.depth, 0);
    } else {
      ++stages;
      EXPECT_EQ(s.depth, 1) << "stage nests inside its task span";
    }
  }
  EXPECT_EQ(tids.size(), static_cast<size_t>(kSlots));
  EXPECT_EQ(tasks, kSlots * kTasksPerSlot);
  EXPECT_EQ(stages, kSlots * kTasksPerSlot);
}

TEST(TraceTest, SecondRecorderDoesNotInheritCachedBuffers) {
  // Threads cache their buffer in a thread_local keyed by recorder id; a
  // new recorder on the same thread must not see the old one's buffer.
  auto first = std::make_unique<TraceRecorder>();
  { Span s(first.get(), "old", "stage"); }
  EXPECT_EQ(first->num_spans(), 1u);
  first.reset();
  TraceRecorder second;
  { Span s(&second, "new", "stage"); }
  std::vector<SpanRecord> spans = second.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "new");
}

TEST(ChromeTraceTest, EmitsOneCompleteEventPerSpan) {
  TraceRecorder recorder;
  {
    Span task(&recorder, "map-task", "task", 7, 2);
    Span stage(&recorder, "hash-build", "stage", 7, 2);
  }
  const std::string json = ChromeTraceJson(recorder.Drain(), "wordcount");
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("wordcount"), std::string::npos);
  EXPECT_NE(json.find("\"map-task\""), std::string::npos);
  EXPECT_NE(json.find("\"hash-build\""), std::string::npos);
  // Structural sanity: braces and brackets balance.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Two "X" complete events (one per span).
  size_t events = 0, pos = 0;
  while ((pos = json.find("\"ph\":\"X\"", pos)) != std::string::npos) {
    ++events;
    pos += 1;
  }
  EXPECT_EQ(events, 2u);
}

TEST(ChromeTraceTest, EscapesSpanNames) {
  TraceRecorder recorder;
  { Span s(&recorder, "weird \"name\"\\path", "stage"); }
  const std::string json = ChromeTraceJson(recorder.Drain(), "job");
  EXPECT_NE(json.find("weird \\\"name\\\"\\\\path"), std::string::npos)
      << json;
}

TEST(ChromeTraceTest, WriteCreatesReadableFile) {
  TraceRecorder recorder;
  { Span s(&recorder, "span", "stage"); }
  const std::string path = ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(WriteChromeTrace(recorder.Drain(), "job", path).ok());
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream content;
  content << file.rdbuf();
  EXPECT_NE(content.str().find("\"traceEvents\""), std::string::npos);
}

}  // namespace
}  // namespace obs

namespace mr {
namespace {

TaskReport MakeTask(int index, hdfs::NodeId node, double wall, bool is_map) {
  TaskReport t;
  t.index = index;
  t.node = node;
  t.is_map = is_map;
  t.wall_seconds = wall;
  return t;
}

JobReport SyntheticReport() {
  JobReport report;
  report.job_name = "synthetic";
  report.num_nodes = 3;
  report.map_tasks = {MakeTask(0, 0, 0.1, true), MakeTask(1, 2, 0.4, true),
                      MakeTask(2, 1, 0.1, true)};
  report.reduce_tasks = {MakeTask(0, 1, 0.2, false),
                         MakeTask(1, 0, 0.05, false)};
  report.wall_seconds = 0.9;
  return report;
}

TEST(CriticalPathTest, FallsBackToTaskWallsWithoutSpans) {
  const JobReport report = SyntheticReport();
  const CriticalPathReport path = CriticalPath(report);
  EXPECT_EQ(path.slowest_map, 1);
  EXPECT_EQ(path.slowest_map_node, 2);
  EXPECT_DOUBLE_EQ(path.slowest_map_seconds, 0.4);
  EXPECT_NEAR(path.map_skew, 0.4 / 0.2, 1e-9);
  EXPECT_EQ(path.slowest_reduce, 0);
  EXPECT_EQ(path.slowest_reduce_node, 1);
  EXPECT_NEAR(path.reduce_skew, 0.2 / 0.125, 1e-9);
  // No phase spans: phase durations fall back to the slowest task.
  EXPECT_DOUBLE_EQ(path.map_phase_seconds, 0.4);
  EXPECT_DOUBLE_EQ(path.reduce_phase_seconds, 0.2);

  const std::string s = path.ToString();
  EXPECT_NE(s.find("m-1@node2"), std::string::npos) << s;
  EXPECT_NE(s.find("shuffle barrier"), std::string::npos) << s;
  EXPECT_NE(s.find("r-0@node1"), std::string::npos) << s;
}

TEST(CriticalPathTest, PrefersPhaseSpans) {
  JobReport report = SyntheticReport();
  auto phase = [](const char* name, int64_t start_us, int64_t dur_us) {
    obs::SpanRecord s;
    s.name = name;
    s.category = "phase";
    s.start_us = start_us;
    s.dur_us = dur_us;
    return s;
  };
  report.spans = {phase("setup", 0, 50'000), phase("map-phase", 50'000, 450'000),
                  phase("reduce-phase", 500'000, 300'000),
                  phase("commit", 800'000, 100'000)};
  const CriticalPathReport path = CriticalPath(report);
  EXPECT_DOUBLE_EQ(path.setup_seconds, 0.05);
  EXPECT_DOUBLE_EQ(path.map_phase_seconds, 0.45);
  EXPECT_DOUBLE_EQ(path.reduce_phase_seconds, 0.3);
  EXPECT_DOUBLE_EQ(path.commit_seconds, 0.1);
}

TEST(CriticalPathTest, MapOnlyJobHasNoReduceLeg) {
  JobReport report = SyntheticReport();
  report.reduce_tasks.clear();
  const CriticalPathReport path = CriticalPath(report);
  EXPECT_EQ(path.slowest_reduce, -1);
  EXPECT_NE(path.ToString().find("map-only"), std::string::npos);
}

TEST(TimelineTest, ShowsBarsHistogramsAndCriticalPath) {
  JobReport report = SyntheticReport();
  obs::SpanRecord job;
  job.name = "synthetic";
  job.category = "job";
  job.dur_us = 900'000;
  obs::SpanRecord task;
  task.name = "map-task";
  task.category = "task";
  task.task = 1;
  task.node = 2;
  task.start_us = 50'000;
  task.dur_us = 400'000;
  task.depth = 1;
  obs::SpanRecord stage;
  stage.name = "probe";
  stage.category = "stage";
  stage.dur_us = 1000;
  report.spans = {job, task, stage};
  report.histograms.Get(kHistMapTaskMicros)->Record(400'000);

  const std::string text = TimelineText(report);
  EXPECT_NE(text.find("synthetic timeline"), std::string::npos) << text;
  EXPECT_NE(text.find("map-task #1 @node2"), std::string::npos) << text;
  EXPECT_EQ(text.find("probe"), std::string::npos)
      << "stage spans stay out of the timeline: " << text;
  EXPECT_NE(text.find(kHistMapTaskMicros), std::string::npos) << text;
  EXPECT_NE(text.find("critical path"), std::string::npos) << text;
  EXPECT_NE(text.find('#'), std::string::npos) << "proportional bars";
}

TEST(SummaryTest, ShowsPercentileTriples) {
  JobReport report = SyntheticReport();
  for (int64_t v : {1000, 2000, 3000}) {
    report.histograms.Get(kHistMapTaskMicros)->Record(v);
  }
  report.histograms.Get(kHistShuffleFetchBytes)->Record(4096);
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("map p50/p95/p99="), std::string::npos) << summary;
  EXPECT_NE(summary.find("shuffle-fetch p50/p95/p99="), std::string::npos)
      << summary;
}

TEST(JobTraceFilesTest, WritesTraceAndTimeline) {
  JobReport report = SyntheticReport();
  obs::SpanRecord job;
  job.name = "synthetic";
  job.category = "job";
  job.dur_us = 900'000;
  report.spans = {job};
  ASSERT_TRUE(WriteJobTrace(report, ::testing::TempDir(), 7).ok());
  const std::string base = ::testing::TempDir() + "/synthetic-7";
  EXPECT_TRUE(std::ifstream(base + ".trace.json").good());
  EXPECT_TRUE(std::ifstream(base + ".timeline.txt").good());
}

}  // namespace
}  // namespace mr
}  // namespace clydesdale
