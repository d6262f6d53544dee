#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "mapreduce/job_trace.h"
#include "obs/chrome_trace.h"
#include "obs/json_util.h"
#include "obs/trace.h"

namespace clydesdale {
namespace obs {
namespace {

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

TEST(TraceTest, SpanTimesWithOrWithoutRecorder) {
  Span untraced(nullptr, "untraced", "stage");
  volatile uint64_t spin = 0;
  for (int i = 0; i < 200'000; ++i) spin = spin + 1;
  untraced.End();
  EXPECT_GT(untraced.wall_ns(), 0);
  EXPECT_GT(untraced.cpu_ns(), 0);
  const int64_t wall = untraced.wall_ns();
  const int64_t cpu = untraced.cpu_ns();
  untraced.End();
  EXPECT_EQ(untraced.wall_ns(), wall) << "End freezes the readings";
  EXPECT_EQ(untraced.cpu_ns(), cpu);

  // A recorded span's duration is the same reading, rounded to microseconds.
  TraceRecorder recorder;
  int64_t traced_wall_ns = 0;
  {
    Span traced(&recorder, "traced", "stage");
    for (int i = 0; i < 200'000; ++i) spin = spin + 1;
    traced.End();
    traced_wall_ns = traced.wall_ns();
  }
  const std::vector<SpanRecord> spans = recorder.Drain();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_LE(std::abs(spans[0].dur_us * 1000 - traced_wall_ns), 1000);
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

  const std::string text = TimelineText(report);
  EXPECT_NE(text.find("synthetic timeline"), std::string::npos) << text;
  EXPECT_NE(text.find("map-task #1 @node2"), std::string::npos) << text;
  EXPECT_EQ(text.find("probe"), std::string::npos)
      << "stage spans stay out of the timeline: " << text;
  // The task percentiles come from the task reports, one line each.
  EXPECT_NE(text.find("\n  map p50/p95/p99=100000/400000/400000us\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\n  reduce shuffle p50/p95/p99="), std::string::npos)
      << text;
  EXPECT_NE(text.find("critical path"), std::string::npos) << text;
  EXPECT_NE(text.find('#'), std::string::npos) << "proportional bars";
}

TEST(SummaryTest, ShowsPercentileTriples) {
  JobReport report = SyntheticReport();
  report.reduce_tasks[0].shuffle_bytes_total = 4096;
  report.reduce_tasks[1].shuffle_bytes_total = 1024;
  const std::string summary = report.Summary();
  // Exact nearest-rank percentiles over the three map tasks' wall times
  // (0.1 s, 0.4 s, 0.1 s) and the two reduce tasks' shuffle input.
  EXPECT_NE(summary.find(", map p50/p95/p99=100000/400000/400000us"),
            std::string::npos)
      << summary;
  EXPECT_NE(summary.find(", reduce shuffle p50/p95/p99=1024/4096/4096B"),
            std::string::npos)
      << summary;

  report.map_tasks.clear();
  report.reduce_tasks.clear();
  EXPECT_EQ(report.Summary().find("p50"), std::string::npos)
      << "no tasks, no percentiles";
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
