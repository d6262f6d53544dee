#include "common/logging.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "common/status.h"

namespace clydesdale {

namespace {
std::atomic<int> g_threshold{static_cast<int>(LogLevel::kInfo)};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}

std::mutex& EmitMutex() {
  static std::mutex* const kMutex = new std::mutex();
  return *kMutex;
}

std::string& ThreadLogContext() {
  thread_local std::string context;
  return context;
}
}  // namespace

void SetLogThreshold(LogLevel level) {
  g_threshold.store(static_cast<int>(level), std::memory_order_relaxed);
}

const std::string& LogContext() { return ThreadLogContext(); }

ScopedLogContext::ScopedLogContext(std::string context) {
  std::string& slot = ThreadLogContext();
  saved_ = std::move(slot);
  slot = std::move(context);
}

ScopedLogContext::~ScopedLogContext() { ThreadLogContext() = std::move(saved_); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level),
      enabled_(static_cast<int>(level) >=
               g_threshold.load(std::memory_order_relaxed)) {
  if (enabled_) {
    const char* base = file;
    for (const char* p = file; *p != '\0'; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelName(level_) << " " << base << ":" << line << "] ";
    const std::string& context = ThreadLogContext();
    if (!context.empty()) stream_ << "[" << context << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::lock_guard<std::mutex> lock(EmitMutex());
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
    std::fflush(stderr);
  }
  if (level_ == LogLevel::kFatal) std::abort();
}

}  // namespace internal
}  // namespace clydesdale
