#ifndef CLYDESDALE_COMMON_LOGGING_H_
#define CLYDESDALE_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace clydesdale {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

/// Sets the minimum level that is actually emitted (default kInfo).
void SetLogThreshold(LogLevel level);

/// The calling thread's ambient log context ("" when unset). Non-empty
/// context is prepended to every CLY_LOG line the thread emits, e.g.
/// "[I engine.cc:42] [q2.1/m-17@node3] ...", so interleaved multi-slot
/// task logs stay attributable.
const std::string& LogContext();

/// RAII setter for the calling thread's log context; restores the previous
/// context on destruction, so nested scopes (job > task) compose.
class ScopedLogContext {
 public:
  explicit ScopedLogContext(std::string context);
  ~ScopedLogContext();

  ScopedLogContext(const ScopedLogContext&) = delete;
  ScopedLogContext& operator=(const ScopedLogContext&) = delete;

 private:
  std::string saved_;
};

namespace internal {

/// Stream-style log sink. Emits on destruction; aborts the process for kFatal.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& v) {
    if (enabled_) stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  bool enabled_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace clydesdale

#define CLY_LOG(severity)                                             \
  ::clydesdale::internal::LogMessage(::clydesdale::LogLevel::k##severity, \
                                     __FILE__, __LINE__)

/// Fatal unless `condition` holds; use for internal invariants only (API
/// errors are reported through Status).
#define CLY_CHECK(condition)                                            \
  if (!(condition))                                                     \
  CLY_LOG(Fatal) << "Check failed: " #condition " "

#define CLY_CHECK_OK(expr)                                   \
  if (::clydesdale::Status _cly_check_st = (expr); !_cly_check_st.ok()) \
  CLY_LOG(Fatal) << "Status not OK: " << _cly_check_st.ToString() << " "

#ifndef NDEBUG
#define CLY_DCHECK(condition) CLY_CHECK(condition)
#else
#define CLY_DCHECK(condition) \
  if (false) CLY_LOG(Fatal)
#endif

#endif  // CLYDESDALE_COMMON_LOGGING_H_
