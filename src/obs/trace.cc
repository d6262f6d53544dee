#include "obs/trace.h"

#include <time.h>

#include <algorithm>

namespace clydesdale {
namespace obs {

namespace {
uint64_t NextRecorderId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

TraceRecorder::TraceRecorder()
    : id_(NextRecorderId()), epoch_(std::chrono::steady_clock::now()) {}

int64_t ThreadCpuNanos() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void Timer::Stop() {
  if (stopped_) return;
  end_ = Clock::now();
  cpu_end_ns_ = ThreadCpuNanos();
  stopped_ = true;
}

int64_t Timer::wall_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             (stopped_ ? end_ : Clock::now()) - start_)
      .count();
}

int64_t Timer::cpu_ns() const {
  return (stopped_ ? cpu_end_ns_ : ThreadCpuNanos()) - cpu_start_ns_;
}

int64_t TraceRecorder::MicrosAt(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch_)
      .count();
}

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  // Cache the (recorder id, buffer) pair per thread: repeat spans from the
  // same thread bypass the mutex entirely. The id check guards against a
  // stale entry left by a previous recorder this thread fed.
  thread_local uint64_t cached_id = 0;
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_id == id_) return cached_buffer;

  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  buffers_.back()->tid = static_cast<int>(buffers_.size()) - 1;
  cached_id = id_;
  cached_buffer = buffers_.back().get();
  return cached_buffer;
}

std::vector<SpanRecord> TraceRecorder::Drain() {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& buffer : buffers_) {
      all.insert(all.end(), std::make_move_iterator(buffer->spans.begin()),
                 std::make_move_iterator(buffer->spans.end()));
      buffer->spans.clear();
    }
  }
  SortByStart(&all);
  return all;
}

void SortByStart(std::vector<SpanRecord>* spans) {
  std::sort(spans->begin(), spans->end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.seq < b.seq;
            });
}

size_t TraceRecorder::num_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->spans.size();
  return n;
}

Span::Span(TraceRecorder* recorder, std::string name, const char* category,
           int task, int node)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;  // tracing off: near-zero cost
  buffer_ = recorder_->BufferForThisThread();
  record_.name = std::move(name);
  record_.category = category;
  record_.task = task;
  record_.node = node;
  record_.tid = buffer_->tid;
  record_.depth = buffer_->depth++;
  record_.seq = recorder_->next_seq_.fetch_add(1, std::memory_order_relaxed);
  record_.start_us = recorder_->MicrosAt(timer_.start());
}

void Span::End() {
  if (timer_.stopped()) return;
  timer_.Stop();
  if (recorder_ == nullptr) return;
  record_.dur_us = recorder_->MicrosAt(timer_.end()) - record_.start_us;
  --buffer_->depth;
  buffer_->spans.push_back(std::move(record_));
  recorder_ = nullptr;
}

}  // namespace obs
}  // namespace clydesdale
