#include "core/engine_config.h"

#include <cstdlib>
#include <cstring>
#include <limits>

namespace aplus {

namespace {

// See FromEnv for what counts as an integer.
int64_t EnvInt(const char* name, int64_t fallback,
               int64_t max = std::numeric_limits<int64_t>::max()) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  int64_t value = 0;
  for (const char* p = env; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return fallback;
    const int digit = *p - '0';
    if (value > (max - digit) / 10) return fallback;
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

EngineConfig EngineConfig::FromEnv() {
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  EngineConfig config;
  const int max_concurrent = static_cast<int>(EnvInt("APLUS_MAX_CONCURRENT", 0, kIntMax));
  if (max_concurrent > 0) {
    config.admission.max_concurrent = max_concurrent;
    config.admission.max_queue =
        static_cast<int>(EnvInt("APLUS_ADMISSION_QUEUE", max_concurrent, kIntMax));
    config.admission.queue_timeout_ms = EnvInt("APLUS_ADMISSION_TIMEOUT_MS", 100, kIntMax);
  }
  config.query_timeout_ms = EnvInt("APLUS_QUERY_TIMEOUT_MS", 0);
  config.mem_cap_bytes = static_cast<uint64_t>(EnvInt("APLUS_MEM_CAP", 0));
  config.mem_cap_total_bytes = static_cast<uint64_t>(EnvInt("APLUS_MEM_CAP_TOTAL", 0));
  const char* compress = std::getenv("APLUS_SEGMENT_COMPRESS");
  if (compress != nullptr && std::strcmp(compress, "on") == 0) {
    config.segment_compress = CompressMode::kOn;
  } else if (compress != nullptr && std::strcmp(compress, "off") == 0) {
    config.segment_compress = CompressMode::kOff;
  }
  return config;
}

}  // namespace aplus
