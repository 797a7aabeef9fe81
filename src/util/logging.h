#ifndef APLUS_UTIL_LOGGING_H_
#define APLUS_UTIL_LOGGING_H_

// Lightweight logging and invariant-checking macros.
//
// APLUS_CHECK(cond) aborts the process with a diagnostic when `cond` is
// false; it is always compiled in, mirroring the CHECK macros used by
// storage engines where silently continuing past a broken invariant
// corrupts data. APLUS_DCHECK compiles away in NDEBUG builds.

#include <cstdint>
#include <sstream>
#include <string>

namespace aplus {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

namespace internal {

// Sink for a single log statement; flushes on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Aborts after streaming the failure message.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line, const char* condition);
  [[noreturn]] ~FatalMessage();

  FatalMessage(const FatalMessage&) = delete;
  FatalMessage& operator=(const FatalMessage&) = delete;

  template <typename T>
  FatalMessage& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal

#define APLUS_LOG(level) \
  ::aplus::internal::LogMessage(::aplus::LogLevel::k##level, __FILE__, __LINE__)

#define APLUS_CHECK(cond)                                       \
  if (cond) {                                                   \
  } else /* NOLINT */                                           \
    ::aplus::internal::FatalMessage(__FILE__, __LINE__, #cond)

#define APLUS_CHECK_EQ(a, b) APLUS_CHECK((a) == (b)) << " (" << (a) << " vs " << (b) << ") "
#define APLUS_CHECK_NE(a, b) APLUS_CHECK((a) != (b)) << " (" << (a) << " vs " << (b) << ") "
#define APLUS_CHECK_LT(a, b) APLUS_CHECK((a) < (b)) << " (" << (a) << " vs " << (b) << ") "
#define APLUS_CHECK_LE(a, b) APLUS_CHECK((a) <= (b)) << " (" << (a) << " vs " << (b) << ") "
#define APLUS_CHECK_GT(a, b) APLUS_CHECK((a) > (b)) << " (" << (a) << " vs " << (b) << ") "
#define APLUS_CHECK_GE(a, b) APLUS_CHECK((a) >= (b)) << " (" << (a) << " vs " << (b) << ") "

#ifdef NDEBUG
#define APLUS_DCHECK(cond) \
  if (true) {              \
  } else /* NOLINT */      \
    ::aplus::internal::FatalMessage(__FILE__, __LINE__, #cond)
#else
#define APLUS_DCHECK(cond) APLUS_CHECK(cond)
#endif

}  // namespace aplus

#endif  // APLUS_UTIL_LOGGING_H_
