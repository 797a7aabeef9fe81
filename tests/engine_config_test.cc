// EngineConfig::FromEnv, the one reader of the engine's APLUS_*
// variables, as parse tables: an integer counts only when the whole
// value is a non-negative decimal within its field's range; anything
// else keeps the field's default.

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>

#include "core/engine_config.h"

namespace aplus {
namespace {

// FromEnv with exactly `vars` set among the engine's variables.
EngineConfig FromEnvWith(std::initializer_list<std::pair<const char*, const char*>> vars) {
  const char* const kNames[] = {"APLUS_MAX_CONCURRENT",   "APLUS_ADMISSION_QUEUE",
                                "APLUS_ADMISSION_TIMEOUT_MS", "APLUS_QUERY_TIMEOUT_MS",
                                "APLUS_MEM_CAP",          "APLUS_MEM_CAP_TOTAL",
                                "APLUS_SEGMENT_COMPRESS"};
  for (const char* name : kNames) unsetenv(name);
  for (const auto& [name, value] : vars) setenv(name, value, 1);
  EngineConfig config = EngineConfig::FromEnv();
  for (const char* name : kNames) unsetenv(name);
  return config;
}

TEST(EngineConfigTest, UnsetVariablesGiveTheDefaults) {
  EngineConfig config = FromEnvWith({});
  EXPECT_EQ(config.admission.max_concurrent, 0);
  EXPECT_EQ(config.query_timeout_ms, 0);
  EXPECT_EQ(config.mem_cap_bytes, 0u);
  EXPECT_EQ(config.mem_cap_total_bytes, 0u);
  EXPECT_EQ(config.segment_compress, CompressMode::kAuto);
}

// Each value parsed into an int-ranged field (admission) and into an
// int64-ranged one (timeout, memory caps); -1: the default is kept. A
// junk queue depth keeps the slot-count queue and a junk wait 100 ms,
// instead of 0 rejecting every waiter; "1kB" is no memory cap at all.
TEST(EngineConfigTest, IntegerVariablesTakeOnlyWholeNonNegativeValuesInRange) {
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  const struct {
    const char* value;
    int64_t as_int;
    int64_t as_int64;
  } cases[] = {
      {"0", 0, 0}, {"42", 42, 42}, {"2147483647", kIntMax, kIntMax},
      {"2147483648", -1, kIntMax + 1},
      {"9223372036854775807", -1, std::numeric_limits<int64_t>::max()},
      {"9223372036854775808", -1, -1}, {"", -1, -1}, {"abc", -1, -1}, {"50ms", -1, -1},
      {"1kB", -1, -1}, {"-1", -1, -1}, {"+5", -1, -1}, {" 5", -1, -1}, {"5 ", -1, -1},
      {"1e3", -1, -1}, {"0x10", -1, -1}};
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string("'") + c.value + "'");
    // Admission is read only when APLUS_MAX_CONCURRENT > 0.
    EngineConfig gate = FromEnvWith({{"APLUS_MAX_CONCURRENT", c.value},
                                     {"APLUS_ADMISSION_QUEUE", "2"},
                                     {"APLUS_ADMISSION_TIMEOUT_MS", "5"}});
    const bool enabled = c.as_int > 0;
    EXPECT_EQ(gate.admission.max_concurrent, enabled ? c.as_int : 0);
    EXPECT_EQ(gate.admission.max_queue, enabled ? 2 : 0);
    EXPECT_EQ(gate.admission.queue_timeout_ms, enabled ? 5 : 0);

    EngineConfig config = FromEnvWith({{"APLUS_MAX_CONCURRENT", "3"},
                                       {"APLUS_ADMISSION_QUEUE", c.value},
                                       {"APLUS_ADMISSION_TIMEOUT_MS", c.value},
                                       {"APLUS_QUERY_TIMEOUT_MS", c.value},
                                       {"APLUS_MEM_CAP", c.value},
                                       {"APLUS_MEM_CAP_TOTAL", c.value}});
    EXPECT_EQ(config.admission.max_queue, c.as_int < 0 ? 3 : c.as_int);
    EXPECT_EQ(config.admission.queue_timeout_ms, c.as_int < 0 ? 100 : c.as_int);
    const int64_t as_int64 = c.as_int64 < 0 ? 0 : c.as_int64;
    EXPECT_EQ(config.query_timeout_ms, as_int64);
    EXPECT_EQ(config.mem_cap_bytes, static_cast<uint64_t>(as_int64));
    EXPECT_EQ(config.mem_cap_total_bytes, static_cast<uint64_t>(as_int64));
  }
}

TEST(EngineConfigTest, SegmentCompressTakesAutoOnOrOff) {
  const std::pair<const char*, CompressMode> cases[] = {
      {"auto", CompressMode::kAuto}, {"on", CompressMode::kOn},   {"off", CompressMode::kOff},
      {"junk", CompressMode::kAuto}, {"", CompressMode::kAuto},   {"ON", CompressMode::kAuto},
      {"on ", CompressMode::kAuto},  {"1", CompressMode::kAuto}};
  for (const auto& [value, mode] : cases) {
    SCOPED_TRACE(std::string("'") + value + "'");
    EXPECT_EQ(FromEnvWith({{"APLUS_SEGMENT_COMPRESS", value}}).segment_compress, mode);
  }
}

}  // namespace
}  // namespace aplus
