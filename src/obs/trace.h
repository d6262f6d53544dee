#ifndef CLYDESDALE_OBS_TRACE_H_
#define CLYDESDALE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace clydesdale {
namespace obs {

/// One finished span. Timestamps are microseconds relative to the owning
/// TraceRecorder's creation (one recorder per job, so traces start at 0).
struct SpanRecord {
  std::string name;             ///< e.g. "map-task", "probe", "hash-build"
  const char* category = "";    ///< "job" | "phase" | "task" | "stage"
  int64_t start_us = 0;
  int64_t dur_us = 0;
  int task = -1;                ///< task index, -1 for job/phase spans
  int node = -1;                ///< node id, -1 when not node-bound
  int tid = 0;                  ///< recorder-assigned dense thread id
  int depth = 0;                ///< nesting depth within the thread at start
  uint64_t seq = 0;             ///< recorder-wide start order (construction)

  int64_t end_us() const { return start_us + dur_us; }
};

/// Thread-safe span sink with per-thread buffers: starting/ending a span
/// touches only thread-private state, so the hot path takes no lock (the
/// recorder mutex is held once per thread, at buffer registration). Spans
/// are unbounded in-memory; Drain() after all producers stopped.
///
/// Disabled tracing is represented by a null recorder: a Span against
/// nullptr only reads its clocks, so instrumentation stays in place
/// unconditionally.
class TraceRecorder {
 public:
  TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Microseconds from this recorder's creation to `t` (steady clock).
  int64_t MicrosAt(std::chrono::steady_clock::time_point t) const;

  /// Moves out every recorded span in start order (SortByStart). Call only
  /// after all span-producing threads have finished (joined); concurrent
  /// Drain is not supported.
  std::vector<SpanRecord> Drain();

  /// Spans recorded so far. Like Drain, only meaningful at quiescence.
  size_t num_spans() const;

 private:
  friend class Span;

  struct ThreadBuffer {
    std::vector<SpanRecord> spans;
    int tid = 0;
    int depth = 0;  ///< open-span nesting of the owning thread
  };

  /// This thread's buffer, registering it on first use. The returned
  /// pointer is owned by the recorder and stable until destruction.
  ThreadBuffer* BufferForThisThread();

  /// Distinguishes this recorder from any earlier one whose buffer a thread
  /// may still have cached in its thread_local slot (monotone, never
  /// reused — same idiom as mr::ShardedCollector).
  const uint64_t id_;
  const std::chrono::steady_clock::time_point epoch_;
  /// Next SpanRecord::seq; one relaxed increment per span start.
  std::atomic<uint64_t> next_seq_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Sorts spans by (start_us, seq): a parent starts before its children and
/// a sibling before the later ones, even within one microsecond.
void SortByStart(std::vector<SpanRecord>* spans);

/// Calling thread's CPU time (user + system) in nanoseconds.
int64_t ThreadCpuNanos();

/// The one timer behind every instrumented step: reads the steady clock and
/// the calling thread's CPU clock once at construction and once at Stop().
/// Every report of the step (span duration, task wall time, profile node)
/// derives from these two readings. Must be started and stopped on the same
/// thread (the CPU clock is per thread).
class Timer {
 public:
  using Clock = std::chrono::steady_clock;

  Timer() : start_(Clock::now()), cpu_start_ns_(ThreadCpuNanos()) {}

  /// Takes the end readings. Idempotent: later calls keep the first.
  void Stop();
  bool stopped() const { return stopped_; }

  /// Wall and thread-CPU nanoseconds from construction to Stop() (to now
  /// while still running).
  int64_t wall_ns() const;
  int64_t cpu_ns() const;

  Clock::time_point start() const { return start_; }
  /// The Stop() reading (the start reading while still running).
  Clock::time_point end() const { return stopped_ ? end_ : start_; }

 private:
  Clock::time_point start_;
  Clock::time_point end_;
  int64_t cpu_start_ns_;
  int64_t cpu_end_ns_ = 0;
  bool stopped_ = false;
};

/// RAII span: times [construction, End()) with a Timer, and records that
/// window into `recorder` — or records nothing when `recorder` is null, so
/// the timing is there either way. Must be started and ended on the same
/// thread (the span lives in that thread's buffer).
class Span {
 public:
  Span(TraceRecorder* recorder, std::string name, const char* category,
       int task = -1, int node = -1);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; the destructor becomes a no-op. Idempotent.
  void End();

  /// The span's Timer readings (final once End() ran).
  int64_t wall_ns() const { return timer_.wall_ns(); }
  int64_t cpu_ns() const { return timer_.cpu_ns(); }
  const Timer& timer() const { return timer_; }

 private:
  TraceRecorder* recorder_;
  TraceRecorder::ThreadBuffer* buffer_ = nullptr;
  SpanRecord record_;
  Timer timer_;
};

}  // namespace obs
}  // namespace clydesdale

#endif  // CLYDESDALE_OBS_TRACE_H_
