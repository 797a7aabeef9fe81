#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace aplus {

namespace {
// The lowest level emitted to stderr.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  stream_ << "[" << LevelName(level) << " " << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (level_ >= kMinLevel) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

FatalMessage::FatalMessage(const char* file, int line, const char* condition) {
  stream_ << "[FATAL " << file << ":" << line << "] Check failed: " << condition << " ";
}

FatalMessage::~FatalMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace aplus
