#ifndef APLUS_UTIL_ENV_H_
#define APLUS_UTIL_ENV_H_

#include <cstdint>
#include <cstdlib>
#include <limits>

namespace aplus {

// The value of the integer knob `name` when the whole variable is a
// non-negative decimal integer no larger than `max`; `fallback` when it
// is unset, empty, signed, padded, suffixed ("50ms"), non-numeric or out
// of range. Allocation-free, so the execute path may read knobs per call.
inline int64_t EnvInt(const char* name, int64_t fallback,
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

}  // namespace aplus

#endif  // APLUS_UTIL_ENV_H_
